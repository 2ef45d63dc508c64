package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
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
	// Requests for the encoder: a nil, zero and negative cube_dim,
	// negative Π entries, and kernels holding a quote, HTML characters,
	// control bytes, U+2028 and invalid UTF-8.
	`{"kernel":"l1","size":8}`,
	`{"kernel":"l1","size":8,"cube_dim":0}`,
	`{"kernel":"l1","size":-8,"cube_dim":-1,"search_bound":-2,"merge_factor":-3,"grouping_choice":-4,"timeout_ms":-5}`,
	`{"kernel":"l1","size":8,"pi":[-1,0,-9223372036854775808]}`,
	`{"kernel":"q\"uote <&> \b\f\n\r\t \\ \/","size":8}`,
	"{\"kernel\":\"line\u2028para\u2029\",\"size\":8}",
	"{\"kernel\":\"\xff\xfe\",\"size\":8}",
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

// checkEncode requires AppendPlanRequest(r) to equal json.Marshal(r)
// byte for byte and, with roundTrip, to decode back to r. An empty Pi,
// which omitempty leaves out, decodes back as nil.
func checkEncode(t *testing.T, r *PlanRequest, roundTrip bool) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendPlanRequest(nil, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendPlanRequest(%+v) = %s, json.Marshal gives %s", r, got, want)
	}
	if !roundTrip {
		return
	}
	same := *r
	if len(same.Pi) == 0 {
		same.Pi = nil
	}
	back, err := strictRequest(got)
	if err != nil || !reflect.DeepEqual(back, same) {
		t.Fatalf("AppendPlanRequest(%+v) = %s decodes to %+v (%v)", r, got, back, err)
	}
}

// rawStrBytewise is the string scan rawStr replaced, kept as its oracle:
// it visits one byte at a time and checks UTF-8 over the whole body once
// the closing quote is found. It scans the string value opening b and
// returns its body, whether it holds escapes, the index past it, and
// whether it is in the accepted subset.
func rawStrBytewise(b []byte) (raw []byte, escaped bool, next int, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, false, 0, false
	}
	ascii := true
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(b[1:i]) {
				return nil, false, 0, false
			}
			return b[1:i], escaped, i + 1, true
		case c == '\\':
			i++
			if i == len(b) || unescapeByte(b[i]) == 0 {
				return nil, false, 0, false
			}
			escaped = true
		case c < 0x20:
			return nil, false, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, 0, false
}

// unescapeBytewise is appendUnescaped's byte-at-a-time oracle.
func unescapeBytewise(raw []byte) []byte {
	var dst []byte
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '\\' {
			i++
			c = unescapeByte(raw[i])
		}
		dst = append(dst, c)
	}
	return dst
}

// checkString requires rawStr and appendUnescaped to accept, decline and
// decode the string value that opens b as their bytewise oracles do.
func checkString(t *testing.T, b []byte) {
	t.Helper()
	wantRaw, wantEsc, wantNext, wantOK := rawStrBytewise(b)
	s := scanner{b: b}
	raw, esc := s.rawStr()
	if s.failed == wantOK || (wantOK && (!bytes.Equal(raw, wantRaw) || esc != wantEsc || s.i != wantNext)) {
		t.Fatalf("rawStr(%q) = %q, escaped %v, next %d, failed %v; oracle %q, %v, %d, accepted %v",
			b, raw, esc, s.i, s.failed, wantRaw, wantEsc, wantNext, wantOK)
	}
	if wantOK {
		if got, want := appendUnescaped([]byte("x"), raw), append([]byte("x"), unescapeBytewise(raw)...); !bytes.Equal(got, want) {
			t.Fatalf("appendUnescaped(%q) = %q, oracle %q", raw, got[1:], want[1:])
		}
	}
}

// FuzzPlanWire: for any bytes, when a fast decoder accepts, encoding/json
// accepts too and gives a DeepEqual value, and the string scan accepts,
// declines and decodes a string of the bytes as its bytewise oracle
// does. Every request the fast decoder accepts encodes through
// AppendPlanRequest as json.Marshal encodes it and decodes back to
// itself; a request whose kernel is the raw bytes, whatever they hold,
// encodes as json.Marshal encodes it.
func FuzzPlanWire(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	// String bodies for checkString: escapes, multi-byte runes valid,
	// cut and surrogate, and each special byte at every offset of a run
	// longer than one 8-byte word.
	for _, s := range []string{
		`tab\tquote\" slash\/ back\\ \b\f\n\r"`,
		`kernel l1: Π = (1, 1), β = 1\nmapping\n"`,
		"ok\xe2\x80\"", "\xed\xa0\x80\"", `\u0031"`, `\`, `\"`,
	} {
		f.Add([]byte(s))
	}
	for _, c := range []string{`"`, `\`, `\\`, `\n`, "\x01", "\x7f", "\xc3\xa9", "\xff"} {
		for at := 0; at < 17; at++ {
			run := []byte(strings.Repeat("a", 20))
			f.Add(append(append(run[:at:at], c...), append(run[at:], '"')...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkWire(t, b)
		checkString(t, append([]byte{'"'}, b...))
		var r PlanRequest
		if DecodePlanRequest(b, &r) {
			checkEncode(t, &r, true)
		}
		checkEncode(t, &PlanRequest{Kernel: string(b)}, false)
	})
}
