package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// firstUseGrid is the miss-cold benchmark's grid of first uses, rebuilt
// here: 2-D kernels at sizes 8–128 in steps of 3 and 3-D kernels at 4–28
// in steps of 2, each kernel and size crossed with merge factors 1–10 and
// aux on and off, on cube dimensions 2–4 in rotation. warm holds one
// request per kernel and size at merge factor 11, which the grid never
// uses, to cache the stage under.
func firstUseGrid() (grid, warm []api.PlanRequest) {
	n := 0
	add := func(kernels []string, from, to, step int64) {
		for _, k := range kernels {
			for size := from; size <= to; size += step {
				warm = append(warm, api.PlanRequest{Kernel: k, Size: size, MergeFactor: 11})
				for merge := int64(1); merge <= 10; merge++ {
					for _, noAux := range []bool{false, true} {
						cube := 2 + n%3
						grid = append(grid, api.PlanRequest{Kernel: k, Size: size, CubeDim: &cube, MergeFactor: merge, NoAux: noAux})
						n++
					}
				}
			}
		}
	}
	add([]string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"}, 8, 128, 3)
	add([]string{"closure", "matmul", "sor2d"}, 4, 28, 2)
	return grid, warm
}

// TestFirstUseAllocatesOnlyWhatItKeeps plans every first use of the
// miss-cold grid on a daemon that already caches each grid stage, and
// counts the bytes planFrame allocates per request: the plan, its remap,
// the frame and the cache entries. A first use keeps only its recipe and
// its frame (about 0.8 KB), so the count must stay at or below 2 KB; when
// the partitioning, TIG, mapping and response struct were garbage it
// read about 7.4 KB. Every pool on the path is a pool.Free, which keeps
// what it holds under the race detector too, so the bound holds there.
func TestFirstUseAllocatesOnlyWhatItKeeps(t *testing.T) {
	ctx := context.Background()
	grid, warm := firstUseGrid()
	s := New(Config{CacheBytes: 1 << 40})
	for i := range warm {
		if _, _, _, err := s.planFrame(ctx, &warm[i]); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range grid {
		if _, outcome, _, err := s.planFrame(ctx, &grid[i]); err != nil || outcome != api.CacheMiss {
			t.Fatalf("%+v: outcome %q, err %v; want a miss", grid[i], outcome, err)
		}
	}
	runtime.ReadMemStats(&after)
	if m := s.Metrics(); m.StageReuses != int64(len(grid)) {
		t.Fatalf("%d of %d first uses reused a cached stage, want all", m.StageReuses, len(grid))
	}
	perMiss := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(grid))
	t.Logf("%d first uses on cached stages: %.0f B allocated per request", len(grid), perMiss)
	if perMiss > 2048 {
		t.Fatalf("a first use allocates %.0f B, want at most 2048 (its frame and recipe)", perMiss)
	}
}

// lifetimeOp is one request of the lifetime test.
type lifetimeOp struct{ path, body string }

// lifetimeRounds builds the lifetime test's workload: rounds of one
// request per worker, run with the workers released together. It mixes
// distinct first uses, herds (every worker asks for one new key at once,
// so followers share a leader's plan), batches of first-use plan items,
// a simulation of a key whose first use three plan requests race, and
// uses of held keys on new cubes: two workers share one key's build
// while a simulation of that key races them, and another reuses a key
// of its own.
func lifetimeRounds(workers int) [][]lifetimeOp {
	plan := func(kernel string, size int64, merge int64, noAux bool, cube int) string {
		return fmt.Sprintf(`{"kernel":%q,"size":%d,"merge_factor":%d,"no_aux":%v,"cube_dim":%d}`, kernel, size, merge, noAux, cube)
	}
	// distinct is round r's first use by worker w, on the given cube.
	distinct := func(r, w, cube int) string {
		i := r*workers + w
		return plan([]string{"stencil", "l1", "matvec", "dct"}[w], 10+int64(i), 1+int64(i%5), i%2 == 0, cube)
	}
	var rounds [][]lifetimeOp
	for r := range 30 {
		ops := make([]lifetimeOp, workers)
		for w := range ops {
			i := r*workers + w
			switch r % 5 {
			case 0: // distinct first uses
				ops[w] = lifetimeOp{"/v1/plan", distinct(r, w, i%5)}
			case 1: // a herd on one new key, each worker on its own cube
				ops[w] = lifetimeOp{"/v1/plan", plan("matmul", 12+int64(r), 2, false, w%3)}
			case 2: // batches of first-use plan items, one shared with the next worker
				items := make([]string, 3)
				for j := range items {
					items[j] = `{"plan":` + plan("triangular", 20+int64(r), 1+int64((w+j)%workers), j%2 == 0, j+1) + `}`
				}
				ops[w] = lifetimeOp{"/v1/batch", `{"items":[` + strings.Join(items, ",") + `]}`}
			case 3: // a simulation racing the first plan requests of its key
				if w == 0 {
					ops[w] = lifetimeOp{"/v1/simulate", fmt.Sprintf(`{"kernel":"convolution","size":%d,"merge_factor":3,"cube_dim":2}`, 12+r)}
				} else {
					ops[w] = lifetimeOp{"/v1/plan", plan("convolution", 12+int64(r), 3, false, w)}
				}
			default: // held keys on new cubes, racing a simulation of one
				held := 12 + int64(r-1) // the previous round's key
				switch {
				case w == 0:
					ops[w] = lifetimeOp{"/v1/simulate", fmt.Sprintf(`{"kernel":"convolution","size":%d,"merge_factor":3,"cube_dim":4,"sequential":true}`, held)}
				case w < workers-1:
					ops[w] = lifetimeOp{"/v1/plan", plan("convolution", held, 3, false, 4+w)}
				default: // round r-4's first use by worker 0, on cube 6
					ops[w] = lifetimeOp{"/v1/plan", distinct(r-4, 0, 6)}
				}
			}
		}
		rounds = append(rounds, ops)
	}
	return rounds
}

// ledRound is a lifetime round with a fixed leader: lead runs the flight
// for the base key key, which waits until every follower has joined it,
// and each follower waits, once the flight has ended, until lead has
// answered. So the followers read the plan they share only after the
// leader is done with it.
type ledRound struct {
	key    string
	lead   lifetimeOp
	follow []lifetimeOp
}

// ledRounds builds the led rounds: a /v1/simulate leads /v1/plan
// requests for its key, a batch simulate item leads /v1/plan requests,
// and a /v1/plan leads /v1/simulate requests or batch simulate items.
// Each runs on a new key (a first use) and again on the key it left
// held.
func ledRounds() []ledRound {
	plan := func(size int64, cube int) lifetimeOp {
		return lifetimeOp{"/v1/plan", fmt.Sprintf(`{"kernel":"matvec","size":%d,"merge_factor":2,"cube_dim":%d}`, size, cube)}
	}
	sim := func(size int64, cube int) lifetimeOp {
		return lifetimeOp{"/v1/simulate", fmt.Sprintf(`{"kernel":"matvec","size":%d,"merge_factor":2,"cube_dim":%d,"sequential":true}`, size, cube)}
	}
	batchSim := func(size int64, cube int) lifetimeOp {
		return lifetimeOp{"/v1/batch", `{"items":[{"simulate":` + sim(size, cube).body + `}]}`}
	}
	var out []ledRound
	for kind := range 4 {
		size := 30 + int64(kind)
		key := (&api.PlanRequest{Kernel: "matvec", Size: size, MergeFactor: 2}).Key()
		for use := range 2 { // a first use, then the held key
			// Every /v1/plan asks for a cube no earlier request of the key
			// did, so none is answered from the encoded cache.
			plans := []lifetimeOp{plan(size, 3*use), plan(size, 3*use+1), plan(size, 3*use+2)}
			r := ledRound{key: key}
			switch kind {
			case 0:
				r.lead, r.follow = sim(size, 2+use), plans
			case 1:
				r.lead, r.follow = batchSim(size, 2+use), plans
			case 2:
				r.lead, r.follow = plan(size, 6+use), []lifetimeOp{sim(size, 2), sim(size, 3)}
			default:
				r.lead, r.follow = plan(size, 6+use), []lifetimeOp{batchSim(size, 2), batchSim(size, 3)}
			}
			out = append(out, r)
		}
	}
	return out
}

// serveOp runs one request on h and returns its status and body with
// every cache outcome removed, which depends on what the daemon holds,
// not on the answer.
func serveOp(h http.Handler, op lifetimeOp) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, op.path, strings.NewReader(op.body)))
	return rec.Code, string(cacheField.ReplaceAll(rec.Body.Bytes(), nil))
}

// TestTransientPlanLifetimes serves the lifetime workload on four
// workers with released plans poisoned, and checks every answer against
// a fresh daemon's answer to the same request, served alone. A first use
// whose plan were released before its frame was encoded, or while a
// follower (another /v1/plan, a batch item or a simulation) still read
// it, would answer with poisoned tables or crash; under -race the release
// also races the follower's reads. Each held-key round's build waits
// until the round's other requests for its key have joined the flight
// (or two seconds pass), so those rounds always share a held key's plan.
// The led rounds then fix who leads (see ledRound), so a leader that
// released a plan its followers share would fail them on every run.
func TestTransientPlanLifetimes(t *testing.T) {
	poisonReleased(t)
	const workers = 4
	rounds := lifetimeRounds(workers)
	fresh := New(Config{}).Handler()
	s := New(Config{MaxInflight: workers})
	h := s.Handler()
	// heldKey is the current held-key round's base key, "" in other
	// rounds; every worker but the last asks for it, one of them leading.
	var heldKey string
	var overlapped atomic.Int64
	// led is the current led round, nil in other rounds; leading is
	// closed once its leader's flight has started, leaderDone once the
	// leader has answered.
	var led *ledRound
	var leading, leaderDone chan struct{}
	var ledJoined, ledWaited atomic.Int64
	s.beforeBuild = func(key string) {
		want := workers - 2
		switch {
		case led != nil && key == led.key:
			close(leading)
			want = len(led.follow)
		case key != heldKey:
			return
		}
		for deadline := time.Now().Add(2 * time.Second); s.flight.joiners(key) < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return
			}
		}
		if led != nil {
			ledJoined.Add(1)
		} else {
			overlapped.Add(1)
		}
	}
	s.afterJoin = func(key string) {
		if led == nil || key != led.key {
			return
		}
		select {
		case <-leaderDone:
			ledWaited.Add(1)
		case <-time.After(2 * time.Second):
		}
	}
	got := make([][]string, len(rounds))
	heldRounds := 0
	for r, ops := range rounds {
		got[r] = make([]string, workers)
		heldKey = ""
		if r%5 == 4 {
			heldKey = (&api.PlanRequest{Kernel: "convolution", Size: 12 + int64(r-1), MergeFactor: 3}).Key()
			heldRounds++
		}
		var start, wg sync.WaitGroup
		start.Add(1)
		for w, op := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				code, body := serveOp(h, op)
				got[r][w] = fmt.Sprintf("%d %s", code, body)
			}()
		}
		start.Done()
		wg.Wait()
	}
	heldKey = ""
	leds := ledRounds()
	for i := range leds {
		r := &leds[i]
		led, leading, leaderDone = r, make(chan struct{}), make(chan struct{})
		ops := append([]lifetimeOp{r.lead}, r.follow...)
		answers := make([]string, len(ops))
		var wg sync.WaitGroup
		for w, op := range ops {
			if w == 1 {
				<-leading // the leader's flight has started; join it
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, body := serveOp(h, op)
				answers[w] = fmt.Sprintf("%d %s", code, body)
				if w == 0 {
					close(leaderDone)
				}
			}()
		}
		wg.Wait()
		led = nil
		rounds = append(rounds, ops)
		got = append(got, answers)
	}
	for r, ops := range rounds {
		for w, op := range ops {
			code, body := serveOp(fresh, op)
			if want := fmt.Sprintf("%d %s", code, body); got[r][w] != want || code != http.StatusOK {
				t.Fatalf("round %d worker %d: %s %s answered\n%s\na fresh daemon answers\n%s", r, w, op.path, op.body, got[r][w], want)
			}
		}
	}
	m := s.Metrics()
	t.Logf("%d computations, %d shared flights, %d of %d held-key rounds overlapped", m.PlanComputations, m.SingleflightShared, overlapped.Load(), heldRounds)
	if m.SingleflightShared == 0 {
		t.Fatal("no request followed another's flight; the herds did not overlap")
	}
	if n := overlapped.Load(); n != int64(heldRounds) {
		t.Fatalf("%d of %d held-key rounds shared the held key's build", n, heldRounds)
	}
	followers := 0
	for _, r := range leds {
		followers += len(r.follow)
	}
	if ledJoined.Load() != int64(len(leds)) || ledWaited.Load() != int64(followers) {
		t.Fatalf("%d of %d led rounds had every follower join, %d of %d followers waited for their leader",
			ledJoined.Load(), len(leds), ledWaited.Load(), followers)
	}
}

// joiners returns how many followers wait on key's call in flight.
func (g *flightGroup) joiners(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c.joined
	}
	return 0
}

// TestStageBuiltOncePerFlight restarts on ten stencil keys that share one
// Π-stage, so each is a stage-less recipe, and fires their first uses at
// once with a gate slot each. The first stage build is held until the
// other nine first uses wait on it (or two seconds pass): they must
// share that one build, and every recipe must then refer to the one
// stage the cache keeps.
func TestStageBuiltOncePerFlight(t *testing.T) {
	dir := t.TempDir()
	const keys = 10
	s1, ts1, _ := newPersistentServer(t, dir, nil)
	for merge := 1; merge <= keys; merge++ {
		planBody(t, ts1.URL+"/v1/plan", fmt.Sprintf(`{"kernel": "stencil", "size": 20, "merge_factor": %d}`, merge))
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, rs := newPersistentServer(t, dir, func(c *Config) { c.MaxInflight = keys })
	if rs.Recovered != keys {
		t.Fatalf("recovered %d records, want %d", rs.Recovered, keys)
	}
	var once sync.Once
	s2.beforeStageBuild = func(skey string) {
		once.Do(func() {
			for deadline := time.Now().Add(2 * time.Second); s2.stageFlight.joiners(skey) < keys-1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, keys)
	for merge := int64(1); merge <= keys; merge++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &api.PlanRequest{Kernel: "stencil", Size: 20, MergeFactor: merge}
			if _, outcome, _, err := s2.basePlan(context.Background(), req); err != nil || outcome != api.CacheHit {
				errs <- fmt.Errorf("merge %d: outcome %q, err %v; want a hit", merge, outcome, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s2.Metrics()
	if on := entriesOnStages(s2.cache); m.StageBuilds != 1 || m.PlanRebuilds != keys || cachedStages(s2.cache) != 1 || on != keys {
		t.Fatalf("%d stage builds, %d rebuilds, %d recipes on %d stages; want 1, %d, %d on 1",
			m.StageBuilds, m.PlanRebuilds, on, cachedStages(s2.cache), keys, keys)
	}
}

// entriesOnStages counts the cache entries that refer to a stage.
func entriesOnStages(c *planCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	c.lru.Walk(func(_ string, r *recipe) {
		if r.stage != nil {
			n++
		}
	})
	return n
}
