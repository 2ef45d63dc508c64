package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/api"
)

// payloadGridDigest is the SHA-256 of every durable payload of
// payloadGrid, one per line.
const payloadGridDigest = "8401b22874fb11f624e008242c920e33d11ccc44a206448795e27876e44c0dc9"

// payloadGrid is the response digest's requests plus the spellings the
// canonical defaults fold: merge factors 0 and below, and search bounds
// unset, negative or set with and without SearchPi.
func payloadGrid() []api.PlanRequest {
	reqs := digestKeys()
	for _, pi := range [][]int64{nil, {1, 1, 1}} {
		for _, merge := range []int64{-2, 0, 1, 3} {
			for _, search := range []bool{false, true} {
				for _, bound := range []int64{-1, 0, 2, 3} {
					reqs = append(reqs, api.PlanRequest{Kernel: "matmul", Size: 6, Pi: pi, SearchPi: search, SearchBound: bound,
						MergeFactor: merge, NoAux: merge == 3, GroupingChoice: int(bound & 1)})
				}
			}
		}
	}
	return reqs
}

// TestPersistPayloadIsCanonical pins the durable payload bytes of every
// request of payloadGrid to a digest, and checks that each payload
// decodes to a request with the original's canonical key.
func TestPersistPayloadIsCanonical(t *testing.T) {
	sum := sha256.New()
	for _, req := range payloadGrid() {
		b := persistPayload(&req)
		sum.Write(b)
		sum.Write([]byte{'\n'})
		var back api.PlanRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if got, want := back.Key(), req.Key(); got != want {
			t.Fatalf("%s decodes to key %s, want %s", b, got, want)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != payloadGridDigest {
		t.Fatalf("durable payload digest = %s, want %s", got, payloadGridDigest)
	}
}
