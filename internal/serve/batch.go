// POST /v1/batch: many plan/simulate requests in one round trip.
//
// The wins over N single requests are (1) one HTTP exchange, (2) shared
// base-plan work — items are grouped by their canonical base-plan key and
// each group runs on one worker, so the first item computes (or finds)
// the partitioning and its siblings remap it from cache without ever
// racing it through singleflight, and (3) the encoded-response fast path
// applies per item. Items fail independently: a bad or timed-out item
// carries its own status in the envelope and never poisons its siblings.
//
// In cluster mode a batch is served where it lands — the daemon does not
// split a batch across peers (client.Multi groups items by owner and
// sends one batch per shard instead), so items carry no cluster metadata.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/api"
	"repro/internal/pool"
)

// batchBaseKey returns the canonical base-plan key grouping this item.
func batchBaseKey(it *api.BatchItem) string {
	if it.Plan != nil {
		return it.Plan.Key()
	}
	return it.Simulate.PlanRequest.Key()
}

// frameBody renders a frame into a standalone response body (no trailing
// newline — it embeds as a json.RawMessage).
func frameBody(f *respFrame, outcome api.CacheOutcome) json.RawMessage {
	b := make([]byte, 0, len(f.prefix)+len(outcome)+12)
	b = append(b, f.prefix...)
	b = append(b, `,"cache":"`...)
	b = append(b, outcome...)
	b = append(b, '"', '}')
	return b
}

func errResult(err error) api.BatchItemResult {
	return api.BatchItemResult{Status: errStatus(err), Error: err.Error()}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	var req api.BatchRequest
	if err := decodeJSONBytes(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty batch"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: batch of %d exceeds the maximum %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	s.metrics.batchSize.observe(float64(len(req.Items)))
	s.metrics.batchItems.Add(int64(len(req.Items)))

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Group items by base-plan key, preserving arrival order inside each
	// group. Malformed items are answered immediately and never grouped.
	results := make([]api.BatchItemResult, len(req.Items))
	groups := map[string][]int{}
	var order []string
	for i := range req.Items {
		it := &req.Items[i]
		if (it.Plan == nil) == (it.Simulate == nil) {
			results[i] = api.BatchItemResult{
				Status: http.StatusBadRequest,
				Error:  "serve: batch item needs exactly one of plan, simulate",
			}
			continue
		}
		if it.Plan != nil {
			if err := s.validatePlanRequest(it.Plan); err != nil {
				results[i] = api.BatchItemResult{Status: http.StatusBadRequest, Error: err.Error()}
				continue
			}
		} else if err := s.validatePlanRequest(&it.Simulate.PlanRequest); err != nil {
			results[i] = api.BatchItemResult{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		k := batchBaseKey(it)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	// One worker per group: siblings share the group's base plan through
	// the cache strictly after the first item lands it, and distinct
	// groups fan out across the pool. Plan computation itself stays under
	// the admission gate inside basePlan.
	pool.Run(len(order), s.cfg.MaxInflight, func(g int) {
		for _, i := range groups[order[g]] {
			results[i] = s.batchItem(ctx, &req.Items[i])
		}
	})

	buf := getBuf()
	defer putBuf(buf)
	encodeBatchResponse(buf, results)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// encodeBatchResponse renders the envelope by hand: the item bodies are
// already encoded JSON, and routing them through json.Marshal again
// would re-scan every body byte — the dominant cost of a hit-heavy
// batch. Output is byte-identical to json.Marshal(BatchResponse) plus
// the trailing newline writeJSON would have added: strings are escaped
// as json.Marshal escapes them, HTML characters included.
func encodeBatchResponse(buf *bytes.Buffer, results []api.BatchItemResult) {
	buf.WriteString(`{"results":[`)
	for i := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		r := &results[i]
		buf.WriteString(`{"status":`)
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(r.Status), 10))
		if r.Error != "" {
			buf.WriteString(`,"error":`)
			buf.Write(api.AppendJSONString(buf.AvailableBuffer(), r.Error, true))
		}
		if r.ETag != "" {
			buf.WriteString(`,"etag":`)
			buf.Write(api.AppendJSONString(buf.AvailableBuffer(), r.ETag, true))
		}
		if len(r.Body) > 0 {
			buf.WriteString(`,"body":`)
			buf.Write(r.Body)
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
}

// batchItem serves one validated item under the batch context.
func (s *Server) batchItem(ctx context.Context, it *api.BatchItem) api.BatchItemResult {
	if err := ctx.Err(); err != nil {
		return errResult(err)
	}
	if it.Plan != nil {
		f, outcome, _, err := s.planFrame(ctx, it.Plan)
		if err != nil {
			return errResult(err)
		}
		return api.BatchItemResult{
			Status: http.StatusOK,
			ETag:   f.etag,
			Body:   frameBody(f, outcome),
		}
	}

	sreq := it.Simulate
	params, err := simParams(sreq)
	if err != nil {
		return api.BatchItemResult{Status: http.StatusBadRequest, Error: err.Error()}
	}
	resp, err := s.simulate(ctx, sreq, params)
	if err != nil {
		return errResult(err)
	}
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return errResult(err)
	}
	raw := bytes.TrimRight(buf.Bytes(), "\n")
	return api.BatchItemResult{
		Status: http.StatusOK,
		Body:   json.RawMessage(append([]byte(nil), raw...)),
	}
}
