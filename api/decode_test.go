package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// strictRequest is the daemon's request decoding in encoding/json terms:
// one object, no unknown fields, nothing but whitespace after it.
func strictRequest(b []byte) (PlanRequest, error) {
	var r PlanRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return r, errors.New("trailing data")
	}
	return r, nil
}

// checkWire decodes b with both fast decoders and, where one accepts,
// requires encoding/json to accept and agree. It returns which decoders
// accepted.
func checkWire(t *testing.T, b []byte) (req, resp bool) {
	t.Helper()
	var fr PlanRequest
	if req = DecodePlanRequest(b, &fr); req {
		want, err := strictRequest(b)
		if err != nil {
			t.Fatalf("DecodePlanRequest accepted %q, encoding/json rejects it: %v", b, err)
		}
		if !reflect.DeepEqual(fr, want) {
			t.Fatalf("DecodePlanRequest(%q) = %+v, encoding/json gives %+v", b, fr, want)
		}
	}
	var fp PlanResponse
	if resp = DecodePlanResponse(b, &fp); resp {
		var want PlanResponse
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("DecodePlanResponse accepted %q, json.Unmarshal rejects it: %v", b, err)
		}
		if !reflect.DeepEqual(fp, want) {
			t.Fatalf("DecodePlanResponse(%q) = %+v, json.Unmarshal gives %+v", b, fp, want)
		}
	}
	return req, resp
}

// wireSeeds covers what the daemon and client send and each way of
// leaving the fast subset.
var wireSeeds = []string{
	// Bodies as the client and daemon write them.
	`{"kernel":"l1","size":8,"cube_dim":3}`,
	`{"kernel":"matmul","size":4,"cube_dim":-1,"exclusive":true,"pi":[1,1,1],"merge_factor":3,"no_aux":true,"grouping_choice":1,"timeout_ms":500}`,
	`{"kernel":"dct","size":9,"cube_dim":3,"search_pi":true,"search_bound":4}`,
	`{"kernel":"l1","size":8,"pi":[1,1],"steps":17,"iterations":81,"blocks":9,"max_block":17,"group_size_r":2,"beta":1,"tig_edges":16,"tig_traffic":72,"max_out_degree":2,"cube_dim":3,"procs":8,"hop_weight":68,"max_dilation":1,"min_load":1,"max_load":17,"summary":"kernel l1: Π = (1, 1), β = 1\nmapping: load [1, 17]\n","cache":"miss"}` + "\n",
	`{"kernel":"l1","size":8,"pi":[1,1],"summary":"s","cache":"hit","cluster":{"shard":1,"owner":2,"hops":1,"epoch":7}}` + "\n",
	// Whitespace, key order, escapes other than \u, empty values.
	" { \"size\" : 8 ,\n\t\"kernel\" : \"l1\" , \"pi\" : [ ] } \r\n",
	`{"summary":"tab\tquote\" slash\/ back\\ \b\f\n\r","kernel":""}`,
	`{}`,
	// null fields and \u escapes.
	`{"kernel":"l1","size":8,"cube_dim":null}`,
	`{"kernel":null}`,
	`{"pi":null,"cluster":null}`,
	`null`,
	`{"kernel":"l\u0031","size":8}`,
	`{"summary":"\u00e9 \u2028"}`,
	// Case-variant and duplicate keys.
	`{"Kernel":"l1","SIZE":8}`,
	`{"kernel":"l1","kernel":"l2","size":8,"size":9}`,
	`{"pi":[1,2,3],"pi":[4]}`,
	`{"pi":[1,2],"pi":[]}`,
	`{"cube_dim":1,"cube_dim":2}`,
	`{"cluster":{"shard":1,"hops":2},"cluster":{"owner":3}}`,
	// Numbers outside the integer subset.
	`{"size":1e2}`,
	`{"size":-0}`,
	`{"size":01}`,
	`{"size":1.0}`,
	`{"size":9223372036854775807,"steps":-9223372036854775808}`,
	`{"size":9223372036854775808}`,
	`{"cluster":{"epoch":18446744073709551615}}`,
	`{"cluster":{"epoch":-1}}`,
	// Trailing data.
	`{"kernel":"l1","size":8} junk`,
	`{"kernel":"l1","size":8}{"kernel":"l1","size":8}`,
	`{"kernel":"l1","size":8},`,
	// A cluster suffix, as the frame writer appends it.
	`{"kernel":"l1","size":8,"cache":"shared","cluster":{"shard":0,"owner":0,"hops":0,"epoch":0}}`,
	`{"kernel":"l1","cluster":{"shard":0,"bogus":1}}`,
	// Structure and type errors.
	`{"kernel":"l1",}`,
	`{"kernel" "l1"}`,
	`{"kernel":"l1"`,
	`{"exclusive":1}`,
	`{"size":"8"}`,
	`{"pi":[1,]}`,
	`{"kernel":"bad \x01 control"}`,
	"{\"kernel\":\"bad \xff utf8\"}",
	`{"bogus":1}`,
}

// TestPlanWireSeeds: the shapes the daemon and client exchange take the
// fast path, and inputs outside the subset are declined. (FuzzPlanWire's
// seed run checks agreement with encoding/json for every seed.)
func TestPlanWireSeeds(t *testing.T) {
	for i, s := range wireSeeds[:5] {
		req, resp := checkWire(t, []byte(s))
		if (i < 3 && !req) || (i >= 3 && !resp) {
			t.Errorf("wire-shaped body declined (request %v, response %v): %s", req, resp, s)
		}
	}
	for _, s := range []string{
		`{"kernel":"l1","size":8,"cube_dim":null}`,
		`{"kernel":"l\u0031","size":8}`,
		`{"Kernel":"l1"}`,
		`{"size":1e2}`,
		`{"size":01}`,
		`{"kernel":"l1","size":8} junk`,
		`{"kernel":"l1","size":8}{"kernel":"l1","size":8}`,
		`null`,
	} {
		if req, resp := checkWire(t, []byte(s)); req || resp {
			t.Errorf("%s: fast path accepted (request %v, response %v), want it declined", s, req, resp)
		}
	}
}

// FuzzPlanWire: for any bytes, when a fast decoder accepts, encoding/json
// accepts too and gives a DeepEqual value.
func FuzzPlanWire(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkWire(t, b)
	})
}
