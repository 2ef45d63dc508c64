// Batched calls: many plan/simulate requests per round trip through the
// daemon's /v1/batch. On a single Client the whole batch is one HTTP
// exchange; on a Multi the items are grouped by owner shard and one
// sub-batch goes to each owner, so every item still lands on the shard
// that holds (or will hold) its plan.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"repro/api"
	"repro/internal/cluster"
)

// PlanResult is one plan's outcome within a batch.
type PlanResult struct {
	Resp *api.PlanResponse
	ETag string // strong ETag, usable as If-None-Match later
	Err  error
}

// SimulateResult is one simulation's outcome within a batch.
type SimulateResult struct {
	Resp *api.SimulateResponse
	Err  error
}

// Batch sends a raw batch in one round trip. Never hedged: a batch can
// carry arbitrarily expensive misses.
func (c *Client) Batch(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	var out api.BatchResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/batch", req, &out, false); err != nil {
		return nil, err
	}
	if len(out.Results) != len(req.Items) {
		return nil, &APIError{Status: http.StatusOK,
			Message: "batch envelope item count mismatch"}
	}
	return &out, nil
}

// PlanBatch requests many plans in one round trip. Results are positional
// with reqs; items fail independently through their Err fields. The
// returned error covers only whole-exchange failures.
func (c *Client) PlanBatch(ctx context.Context, reqs []*api.PlanRequest) ([]PlanResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	items := make([]api.BatchItem, len(reqs))
	for i, r := range reqs {
		items[i] = api.BatchItem{Plan: r}
	}
	out, err := c.Batch(ctx, &api.BatchRequest{Items: items})
	if err != nil {
		return nil, err
	}
	results := make([]PlanResult, len(reqs))
	for i := range out.Results {
		results[i] = decodePlanItem(&out.Results[i])
	}
	return results, nil
}

// SimulateBatch runs many simulations in one round trip. Results are
// positional with reqs.
func (c *Client) SimulateBatch(ctx context.Context, reqs []*api.SimulateRequest) ([]SimulateResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	items := make([]api.BatchItem, len(reqs))
	for i, r := range reqs {
		items[i] = api.BatchItem{Simulate: r}
	}
	out, err := c.Batch(ctx, &api.BatchRequest{Items: items})
	if err != nil {
		return nil, err
	}
	results := make([]SimulateResult, len(reqs))
	for i := range out.Results {
		results[i] = decodeSimulateItem(&out.Results[i])
	}
	return results, nil
}

func decodePlanItem(res *api.BatchItemResult) PlanResult {
	if res.Status != http.StatusOK {
		return PlanResult{Err: &APIError{Status: res.Status, Message: res.Error}}
	}
	var pr api.PlanResponse
	if err := decodeBody(res.Body, &pr); err != nil {
		return PlanResult{Err: err}
	}
	return PlanResult{Resp: &pr, ETag: res.ETag}
}

func decodeSimulateItem(res *api.BatchItemResult) SimulateResult {
	if res.Status != http.StatusOK {
		return SimulateResult{Err: &APIError{Status: res.Status, Message: res.Error}}
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(res.Body, &sr); err != nil {
		return SimulateResult{Err: err}
	}
	return SimulateResult{Resp: &sr, Err: nil}
}

// Batch sends one raw batch to a single endpoint — no owner splitting,
// no per-item decoding (the daemon serves a batch wherever it lands).
// Routed by the first item's plan key so a single-owner batch still
// lands on its owner; use PlanBatch/SimulateBatch for split routing and
// decoded results.
func (m *Multi) Batch(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	key := ""
	if len(req.Items) > 0 {
		if it := req.Items[0]; it.Plan != nil {
			key = it.Plan.Key()
		} else if it.Simulate != nil {
			key = it.Simulate.PlanRequest.Key()
		}
	}
	var out *api.BatchResponse
	err := m.call(ctx, key, func(ctx context.Context, c *Client) error {
		r, err := c.Batch(ctx, req)
		if err == nil {
			out = r
		}
		return err
	})
	return out, err
}

// batchGroups partitions item indexes by the serving-owner shard of
// their plan key under the current routing view (the same ServingOwner
// walk order() uses, so a sub-batch and its route agree). With no
// learned map everything lands in one group under owner -1 (the daemon
// serves a batch where it lands and never splits it, so a wrong guess
// costs locality, not correctness).
func (m *Multi) batchGroups(keys []string) map[int][]int {
	groups := map[int][]int{}
	v := m.view.Load()
	for i, k := range keys {
		owner := -1
		if v != nil && len(v.active) > 0 {
			owner = cluster.ServingOwner(k, v.active, func(id int) bool { return v.alive[id] })
		}
		groups[owner] = append(groups[owner], i)
	}
	return groups
}

// PlanBatch requests many plans, split into one sub-batch per owner
// shard. Results are positional with reqs; a sub-batch whose exchange
// fails marks only its own items' Err fields, and the joined exchange
// errors are also returned.
func (m *Multi) PlanBatch(ctx context.Context, reqs []*api.PlanRequest) ([]PlanResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = r.Key()
	}
	results := make([]PlanResult, len(reqs))
	err := m.batchCall(ctx, keys, func(c *Client, idxs []int) error {
		sub := make([]*api.PlanRequest, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		rs, err := c.PlanBatch(ctx, sub)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			results[i] = rs[j]
		}
		return nil
	}, func(i int, err error) { results[i] = PlanResult{Err: err} })
	return results, err
}

// SimulateBatch runs many simulations, split into one sub-batch per
// owner shard of each embedded plan request.
func (m *Multi) SimulateBatch(ctx context.Context, reqs []*api.SimulateRequest) ([]SimulateResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = r.PlanRequest.Key()
	}
	results := make([]SimulateResult, len(reqs))
	err := m.batchCall(ctx, keys, func(c *Client, idxs []int) error {
		sub := make([]*api.SimulateRequest, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		rs, err := c.SimulateBatch(ctx, sub)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			results[i] = rs[j]
		}
		return nil
	}, func(i int, err error) { results[i] = SimulateResult{Err: err} })
	return results, err
}

// batchCall fans one m.call out per owner group concurrently. fn serves
// one group on one endpoint; fail records one item's group-level error.
func (m *Multi) batchCall(ctx context.Context, keys []string,
	fn func(c *Client, idxs []int) error, fail func(i int, err error)) error {
	groups := m.batchGroups(keys)
	var wg sync.WaitGroup
	errs := make([]error, 0, len(groups))
	var errMu sync.Mutex
	for owner, idxs := range groups {
		routeKey := ""
		if owner >= 0 {
			// Route the sub-batch by one member's key: order() maps any
			// member key to the same owner endpoint.
			routeKey = keys[idxs[0]]
		}
		wg.Add(1)
		go func(routeKey string, idxs []int) {
			defer wg.Done()
			err := m.call(ctx, routeKey, func(_ context.Context, c *Client) error { return fn(c, idxs) })
			if err != nil {
				for _, i := range idxs {
					fail(i, err)
				}
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
			}
		}(routeKey, idxs)
	}
	wg.Wait()
	return errors.Join(errs...)
}
