package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	loopmap "repro"
	"repro/api"
	"repro/internal/pool"
)

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/plan_digest.txt from the current planner")

const digestFile = "testdata/plan_digest.txt"

// digestKeys is the request sample the response digest covers. The miss
// part follows the miss-cold benchmark grid (2-D kernels at sizes 8–128
// in steps of 3, 3-D kernels at 4–28 in steps of 2): each grid group
// contributes one base key whose merge factor and aux toggle rotate with
// the group index, requested at every cube dimension from −1 to 4. The searched part plans every kernel at sizes
// 2–9 with SearchPi, at cube dimension 3.
func digestKeys() []api.PlanRequest {
	var out []api.PlanRequest
	j := 0
	add := func(kernels []string, from, to, step int64) {
		for _, k := range kernels {
			for size := from; size <= to; size += step {
				merge, noAux := int64(1+j%10), j%20 >= 10
				for cube := -1; cube <= 4; cube++ {
					c := cube
					out = append(out, api.PlanRequest{Kernel: k, Size: size, CubeDim: &c, MergeFactor: merge, NoAux: noAux})
				}
				j++
			}
		}
	}
	add([]string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"}, 8, 128, 3)
	add([]string{"closure", "matmul", "sor2d"}, 4, 28, 2)
	for _, k := range []string{"closure", "convolution", "dct", "l1", "matmul", "matvec", "sor2d", "stencil", "triangular"} {
		for size := int64(2); size <= 9; size++ {
			c := 3
			out = append(out, api.PlanRequest{Kernel: k, Size: size, CubeDim: &c, SearchPi: true})
		}
	}
	return out
}

// cacheField is the per-request cache outcome the frame writer appends;
// it depends on what the plan cache still holds, not on the plan, so the
// digest leaves it out.
var cacheField = regexp.MustCompile(`,"cache":"[a-z]+"`)

// TestPlanResponseDigest pins the /v1/plan response bodies of a fixed
// request sample to a committed SHA-256 digest, so a planner change that
// alters any answer — block counts, TIG traffic, the summary text — fails
// here. Run with -update-digest to rewrite the digest after an intended
// change. Released transient plans are poisoned, and every body is also
// checked against encoding/json of the response struct (buildPlanResponse)
// on a kept plan (planOracle).
func TestPlanResponseDigest(t *testing.T) {
	poisonReleased(t)
	s, oracle := New(Config{}), planOracle{}
	h := s.Handler()
	keys := digestKeys()
	if len(keys) < 1000 {
		t.Fatalf("digest sample has %d keys, want at least 1000", len(keys))
	}
	sum := sha256.New()
	fastReqs, fastResps := 0, 0
	for _, req := range keys {
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body.Bytes())
		}
		fmt.Fprintf(sum, "%s\n", body)
		invariant := cacheField.ReplaceAll(rec.Body.Bytes(), nil)
		sum.Write(invariant)
		kept, err := oracle.plan(&req)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeByJSON(t, &req, kept); !bytes.Equal(invariant, want) {
			t.Fatalf("%s: body without its cache field\n%s\nencoding/json gives\n%s", body, invariant, want)
		}

		// Both byte scanners against their encoding/json oracles: the
		// strict request decoder and json.Unmarshal of the response.
		var fastReq, strictReq api.PlanRequest
		if api.DecodePlanRequest(body, &fastReq) {
			fastReqs++
		}
		if err := decodeJSONBytes(body, &strictReq); err != nil {
			t.Fatalf("%s: strict decode: %v", body, err)
		}
		if !reflect.DeepEqual(fastReq, strictReq) {
			t.Fatalf("%s: DecodePlanRequest = %+v, encoding/json gives %+v", body, fastReq, strictReq)
		}
		var fastResp, jsonResp api.PlanResponse
		if api.DecodePlanResponse(rec.Body.Bytes(), &fastResp) {
			fastResps++
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &jsonResp); err != nil {
			t.Fatalf("%s: json.Unmarshal of the response: %v", body, err)
		}
		if !reflect.DeepEqual(fastResp, jsonResp) {
			t.Fatalf("%s: DecodePlanResponse = %+v, json.Unmarshal gives %+v", body, fastResp, jsonResp)
		}
	}
	if fastReqs != len(keys) || fastResps != len(keys) {
		t.Fatalf("fast decoders handled %d requests and %d responses of %d, want all", fastReqs, fastResps, len(keys))
	}
	got := fmt.Sprintf("%d %s", len(keys), hex.EncodeToString(sum.Sum(nil)))
	if *updateDigest {
		if err := os.WriteFile(digestFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("plan response digest = %s, want %s (run with -update-digest only if the change is intended)", got, w)
	}
}

// buildPlanResponse is the plan response as a struct, every field that
// is a pure function of (request, plan) filled and Cache and Cluster
// left zero: encoding/json of it (without HTML escaping) is the byte
// oracle of encodePlanFrame.
func buildPlanResponse(req *api.PlanRequest, p *loopmap.Plan) *api.PlanResponse {
	ms, _ := p.EvaluateMapping()
	return &api.PlanResponse{
		Kernel:       req.Kernel,
		Size:         req.Size,
		Pi:           p.Schedule.Pi,
		Steps:        p.Schedule.Steps(),
		Iterations:   p.Structure.Len(),
		Blocks:       p.Partitioning.NumBlocks(),
		MaxBlock:     int(p.TIG.MaxLoad()),
		GroupSizeR:   p.Partitioning.R,
		Beta:         p.Partitioning.Beta,
		TIGEdges:     len(p.TIG.Edges),
		TIGTraffic:   p.TIG.TotalTraffic(),
		MaxOutDegree: p.TIG.MaxOutDegree(),
		CubeDim:      req.CubeDimOrDefault(),
		Procs:        p.Procs(),
		Summary:      p.SummaryWith(ms),
		HopWeight:    ms.HopWeight,
		MaxDilation:  ms.MaxDilation,
		MinLoad:      ms.MinLoad,
		MaxLoad:      ms.MaxLoad,
	}
}

// planOracle builds plans as a library caller does, apart from the
// daemon: kept plans on eager Π-stages, one stage per stage key. The
// daemon's transient plans are checked against them.
type planOracle map[string]*loopmap.Stage

// plan returns the request's kept plan, mapped onto its cube.
func (o planOracle) plan(req *api.PlanRequest) (*loopmap.Plan, error) {
	ctx, opt := context.Background(), planOptions(req)
	skey := string(req.AppendStageKey(nil))
	st := o[skey]
	if st == nil {
		k, err := loopmap.LookupKernel(req.Kernel, req.Size)
		if err != nil {
			return nil, err
		}
		if st, err = loopmap.PrepareCtx(ctx, k, opt); err != nil {
			return nil, err
		}
		o[skey] = st
	}
	base, err := st.PlanCtx(ctx, opt)
	if err != nil {
		return nil, err
	}
	return base.RemapOpts(req.CubeDimOrDefault(), loopmap.MapOptions{Exclusive: req.Exclusive})
}

// encodeByJSON is the oracle's encoding of a plan response: what
// encoding/json writes for buildPlanResponse, newline included.
func encodeByJSON(t *testing.T, req *api.PlanRequest, p *loopmap.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(buildPlanResponse(req, p)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// poisonReleased makes released transient plans' tables poisoned for the
// rest of the test, so an answer read after its plan's release differs.
func poisonReleased(t *testing.T) {
	pool.PoisonReleased.Store(true)
	t.Cleanup(func() { pool.PoisonReleased.Store(false) })
}
