package main

import (
	"fmt"
	"math/rand/v2"

	"repro/api"
)

// Workload names, as passed to --workload.
const (
	hitHot    = "hit-hot"
	missCold  = "miss-cold"
	tierChurn = "tier-churn"
)

var workloadNames = []string{hitHot, missCold, tierChurn}

// tierChurnNote is printed with every tier-churn result: the workload runs
// by name but is left out of BENCHMARK.json.
const tierChurnNote = "tier-churn is left out of BENCHMARK.json as unsteady: its figures follow the host's fsync " +
	"latency, which drifted 2x over minutes; ten seeds on two Ps of a 2-vCPU VM with a shared virtual disk gave " +
	"IQR/median 0.16 throughput_rps, 0.12 latency_p50_ms, 0.17 latency_p99_ms, 0.45 setup_s"

// Per-second op counts. A run replays rate × --seconds operations, so two
// commits run the same sequence for the same seed and a faster commit
// finishes sooner rather than doing more work.
const (
	hitOpsPerSecond   = 12000
	missOpsPerSecond  = 285 // ≥ 285 × 20 s covers the whole miss grid
	churnOpsPerSecond = 1400
	churnFreshEvery   = 5 // one op in five is a fresh key on tier-churn
	hitKeys           = 64
)

// The built-in kernels by loop depth. Planning cost grows with the
// iteration count, so the miss grid caps 3-D kernels at a smaller size.
var (
	kernels2D = []string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"}
	kernels3D = []string{"closure", "matmul", "sor2d"}
)

// Op is one timed request: an index into Workload.Keys. Fresh marks the
// first ever request of a base key on tier-churn.
type Op struct {
	Key   int
	Fresh bool
}

// Workload is one seeded operation sequence. Keys holds distinct
// requests (distinct response keys); Warm lists the keys requested once
// before timing (hit-hot's warm set, miss-cold's warm-up, tier-churn's
// fill); Ops is the timed sequence.
type Workload struct {
	Name string
	Keys []api.PlanRequest
	Warm []int
	Ops  []Op
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// generate builds the named workload's sequence from seed. The same seed
// gives the same sequence; seconds scales its length.
func generate(name string, seed uint64, seconds int) (*Workload, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds %d must be positive", seconds)
	}
	switch name {
	case hitHot:
		return genHitHot(seed, seconds), nil
	case missCold:
		return genMissCold(seed, seconds), nil
	case tierChurn:
		return genTierChurn(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func request(kernel string, size int64, cube int, merge int64, noAux bool) api.PlanRequest {
	return api.PlanRequest{Kernel: kernel, Size: size, CubeDim: &cube, MergeFactor: merge, NoAux: noAux}
}

// genHitHot warms hitKeys small requests spread over every built-in
// kernel and cube dims 2–4, then times uniform seeded draws over them:
// every timed request is an encoded-response cache hit. The key set is
// the same for every seed, so seeds differ only in the order of requests.
func genHitHot(seed uint64, seconds int) *Workload {
	all := append(append([]string(nil), kernels2D...), kernels3D...)
	w := &Workload{Name: hitHot}
	for i := 0; i < hitKeys; i++ {
		w.Warm = append(w.Warm, i)
		w.Keys = append(w.Keys, request(all[i%len(all)], int64(4+i/len(all)*2), 2+i%3, 1, false))
	}
	rng := newRNG(seed, 1)
	w.Ops = make([]Op, hitOpsPerSecond*seconds)
	for i := range w.Ops {
		w.Ops[i].Key = rng.IntN(hitKeys)
	}
	return w
}

// missGrid is every base key of the miss-cold stream, in groups of
// windows keys: one group per kernel and size (2-D kernels from 8 to the
// daemon's size limit of 128 in steps of 3, 3-D kernels from 4 to 28 in
// steps of 2), holding that kernel and size crossed with merge factors
// 1–10 and the aux toggle. The slowest plan in it takes about 50 ms, so
// no single key owns the tail.
func missGrid() [][]api.PlanRequest {
	var out [][]api.PlanRequest
	n := 0
	add := func(kernels []string, from, to, step int64) {
		for _, k := range kernels {
			for size := from; size <= to; size += step {
				var g []api.PlanRequest
				for merge := int64(1); merge <= windows/2; merge++ {
					for _, noAux := range []bool{false, true} {
						g = append(g, request(k, size, 2+n%3, merge, noAux))
						n++
					}
				}
				out = append(out, g)
			}
		}
	}
	add(kernels2D, 8, 128, 3)
	add(kernels3D, 4, 28, 2)
	return out
}

// genMissCold warms the daemon up, then gives every window one key of
// each grid group, rotating which member a window takes from group to
// group, so every window plans every kernel and size once and each merge
// factor and aux setting equally often: the windows cost the same. Each window is shuffled with
// the seed. No base key repeats, so every request runs the planner once.
// At twenty seconds or more the run covers the whole grid, so every seed
// times the same set of plans in a different order.
func genMissCold(seed uint64, seconds int) *Workload {
	rng := newRNG(seed, 2)
	grid := missGrid()
	// Thin the groups evenly when the run is too short to cover them.
	groups := max(1, min(len(grid), missOpsPerSecond*seconds/windows))
	w := &Workload{Name: missCold}
	// The warm-up plans one key of every group's kernel and size with a
	// merge factor the grid never uses, so the timed ops start on a full
	// plan cache and a grown heap without repeating a base key.
	for j, g := range grid {
		r := g[0]
		r.MergeFactor = windows/2 + 1
		r.NoAux = j%2 == 1
		w.Warm = append(w.Warm, len(w.Keys))
		w.Keys = append(w.Keys, r)
	}
	for win := 0; win < windows; win++ {
		from := len(w.Keys)
		for j := 0; j < groups; j++ {
			w.Keys = append(w.Keys, grid[j*len(grid)/groups][(j+win)%windows])
		}
		part := w.Keys[from:]
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	for k := len(w.Warm); k < len(w.Keys); k++ {
		w.Ops = append(w.Ops, Op{Key: k, Fresh: true})
	}
	return w
}

// churnGrid is the cheap 2-D keyspace of tier-churn, with merge factors
// 1 to merges. Even sizes form the fill set, odd sizes the fresh keys, so
// the two never share a base key.
func churnGrid(parity, merges int64) []api.PlanRequest {
	var out []api.PlanRequest
	for _, k := range kernels2D {
		for size := 4 + parity; size <= 64; size += 2 {
			for merge := int64(1); merge <= merges; merge++ {
				for _, noAux := range []bool{false, true} {
					out = append(out, request(k, size, 2+len(out)%3, merge, noAux))
				}
			}
		}
	}
	return out
}

// genTierChurn fills the tier with the even-size keys and times a mix in
// which every churnFreshEvery-th op (at a seeded position in each group)
// requests a never-seen odd-size key and the rest re-touch fill keys with
// Zipf skew over a seeded popularity order.
func genTierChurn(seed uint64, seconds int) *Workload {
	rng := newRNG(seed, 3)
	fill, fresh := churnGrid(0, 4), churnGrid(1, 8)
	rng.Shuffle(len(fill), func(i, j int) { fill[i], fill[j] = fill[j], fill[i] })
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	w := &Workload{Name: tierChurn}
	for _, r := range fill {
		w.Warm = append(w.Warm, len(w.Keys))
		w.Keys = append(w.Keys, r)
	}
	n := min(churnOpsPerSecond*seconds, len(fresh)*churnFreshEvery)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(fill)-1))
	w.Ops = make([]Op, 0, n)
	nextFresh := 0
	for len(w.Ops) < n {
		slot := rng.IntN(churnFreshEvery)
		for j := 0; j < churnFreshEvery && len(w.Ops) < n; j++ {
			if j != slot {
				w.Ops = append(w.Ops, Op{Key: int(zipf.Uint64())})
				continue
			}
			w.Ops = append(w.Ops, Op{Key: len(w.Keys), Fresh: true})
			w.Keys = append(w.Keys, fresh[nextFresh])
			nextFresh++
		}
	}
	return w
}
