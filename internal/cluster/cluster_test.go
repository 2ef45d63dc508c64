package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hypercube"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("kernel=k%d|size=%d|merge=%d", i%7, i, i%3)
	}
	return out
}

func TestOwnerDeterministicAndTotal(t *testing.T) {
	shards := []int{0, 1, 2, 3}
	for _, k := range keys(200) {
		a := Owner(k, shards)
		b := Owner(k, []int{3, 1, 0, 2}) // order must not matter
		if a != b {
			t.Fatalf("Owner(%q) depends on candidate order: %d vs %d", k, a, b)
		}
		if a < 0 || a > 3 {
			t.Fatalf("Owner(%q) = %d out of range", k, a)
		}
	}
}

func TestOwnerSpreadsKeys(t *testing.T) {
	shards := []int{0, 1, 2, 3}
	counts := map[int]int{}
	ks := keys(1000)
	for _, k := range ks {
		counts[Owner(k, shards)]++
	}
	for _, id := range shards {
		if counts[id] < len(ks)/10 {
			t.Fatalf("shard %d owns only %d/%d keys — rendezvous hash badly skewed: %v",
				id, counts[id], len(ks), counts)
		}
	}
}

// The property that makes rendezvous hashing the right fit for degraded
// ownership: removing a shard rehomes exactly its keyspace. Every key a
// survivor already owned keeps its owner.
func TestOwnerMinimalRehomingOnDeath(t *testing.T) {
	all := []int{0, 1, 2, 3}
	survivors := []int{0, 1, 3}
	moved := 0
	for _, k := range keys(1000) {
		before := Owner(k, all)
		after := Owner(k, survivors)
		if before != 2 {
			if after != before {
				t.Fatalf("key %q moved %d→%d although its owner survived", k, before, after)
			}
			continue
		}
		moved++
		if after == 2 {
			t.Fatalf("key %q still owned by the dead shard", k)
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: shard 2 owned no keys")
	}
}

func TestNextHopReachesOwnerWithinBudget(t *testing.T) {
	cube := hypercube.New(3)
	alive := func(int) bool { return true }
	for from := 0; from < cube.N; from++ {
		for to := 0; to < cube.N; to++ {
			cur, hops := from, 0
			for cur != to {
				next := NextHop(cube, cur, to, alive)
				if bits.OnesCount(uint(next^to)) >= bits.OnesCount(uint(cur^to)) {
					t.Fatalf("hop %d→%d toward %d does not reduce Hamming distance", cur, next, to)
				}
				cur = next
				if hops++; hops > cube.Dim {
					t.Fatalf("route %d→%d exceeded the %d-hop budget", from, to, cube.Dim)
				}
			}
		}
	}
}

func TestNextHopSkipsDeadIntermediates(t *testing.T) {
	cube := hypercube.New(3)
	// Route 0→7 (all bits differ). E-cube would go 0→1 first; with 1 dead
	// it must pick the next dimension instead, and still converge.
	dead := map[int]bool{1: true}
	usable := func(id int) bool { return !dead[id] }
	next := NextHop(cube, 0, 7, usable)
	if next == 1 {
		t.Fatalf("NextHop routed through dead node 1")
	}
	cur, hops := 0, 0
	for cur != 7 {
		n := NextHop(cube, cur, 7, usable)
		if dead[n] && n != 7 {
			t.Fatalf("route passed through dead intermediate %d", n)
		}
		cur = n
		if hops++; hops > cube.Dim {
			t.Fatalf("detoured route exceeded the hop budget")
		}
	}
}

func TestNextHopFallsBackDirect(t *testing.T) {
	cube := hypercube.New(3)
	// Every intermediate dead: the only move is the direct hop.
	if got := NextHop(cube, 0, 7, func(int) bool { return false }); got != 7 {
		t.Fatalf("NextHop with no usable intermediates = %d, want direct 7", got)
	}
	if got := NextHop(cube, 5, 5, nil); got != 5 {
		t.Fatalf("NextHop(self, self) = %d, want 5", got)
	}
}

// A 6-shard cluster lives in a 3-cube with addresses 6 and 7 unpopulated;
// routes must avoid them like dead nodes.
func TestNextHopNonPowerOfTwo(t *testing.T) {
	cube := hypercube.FromProcessors(6)
	if cube.Dim != 3 {
		t.Fatalf("FromProcessors(6).Dim = %d, want 3", cube.Dim)
	}
	usable := func(id int) bool { return id < 6 }
	for from := 0; from < 6; from++ {
		for to := 0; to < 6; to++ {
			cur, hops := from, 0
			for cur != to {
				cur = NextHop(cube, cur, to, usable)
				if cur >= 6 && cur != to {
					t.Fatalf("route %d→%d visited unpopulated address %d", from, to, cur)
				}
				if hops++; hops > cube.Dim {
					t.Fatalf("route %d→%d exceeded the hop budget", from, to)
				}
			}
		}
	}
}

// --- membership ---

// fakeProber returns scripted errors per peer URL, and is safe for the
// concurrent probes Tick launches.
type fakeProber struct {
	mu   sync.Mutex
	fail map[string]error
}

func (p *fakeProber) set(url string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail == nil {
		p.fail = map[string]error{}
	}
	p.fail[url] = err
}

func (p *fakeProber) Probe(ctx context.Context, url string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fail[url]
}

func testMembership(t *testing.T, prober Prober) *Membership {
	t.Helper()
	m, err := New(Config{
		Self:          0,
		Peers:         []string{"http://a", "http://b", "http://c", "http://d"},
		FailThreshold: 3,
		Prober:        prober,
		Now:           func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// aliveIDs lists the members of testMembership's four-shard roster that
// IsAlive reports alive, in ID order.
func aliveIDs(m *Membership) []int {
	var out []int
	for id := 0; id < 4; id++ {
		if m.IsAlive(id) {
			out = append(out, id)
		}
	}
	return out
}

func TestMembershipValidation(t *testing.T) {
	if _, err := New(Config{Self: 0, Peers: nil}); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := New(Config{Self: 2, Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Fatal("out-of-range self accepted")
	}
	if _, err := New(Config{Self: 0, Peers: []string{"http://a", "  "}}); err == nil {
		t.Fatal("blank peer URL accepted")
	}
}

func TestMembershipFailureDetectionThreshold(t *testing.T) {
	p := &fakeProber{}
	m := testMembership(t, p)
	if got, want := aliveIDs(m), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("initial alive = %v, want %v", got, want)
	}

	p.set("http://c", errors.New("connection refused"))
	ctx := context.Background()
	// Two failures are below the threshold of three: still alive.
	m.Tick(ctx)
	m.Tick(ctx)
	if !m.IsAlive(2) {
		t.Fatal("peer 2 marked dead before FailThreshold")
	}
	// The third consecutive failure kills it.
	if got := m.Tick(ctx); got != 1 {
		t.Fatalf("Tick reported %d failures, want 1", got)
	}
	if m.IsAlive(2) {
		t.Fatal("peer 2 alive after FailThreshold consecutive failures")
	}
	if got, want := aliveIDs(m), []int{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("alive = %v, want %v", got, want)
	}

	// Degraded ownership: the dead shard owns nothing.
	for _, k := range keys(200) {
		if m.Owner(k) == 2 {
			t.Fatalf("dead shard still owns key %q", k)
		}
	}

	// One success revives it.
	p.set("http://c", nil)
	m.Tick(ctx)
	if !m.IsAlive(2) {
		t.Fatal("peer 2 not revived by a successful probe")
	}
}

func TestMembershipSelfAlwaysAlive(t *testing.T) {
	p := &fakeProber{}
	m := testMembership(t, p)
	m.MarkDead(0) // must be a no-op
	if !m.IsAlive(0) {
		t.Fatal("self marked dead")
	}
	for _, u := range []string{"http://a", "http://b", "http://c", "http://d"} {
		p.set(u, errors.New("down"))
	}
	for i := 0; i < 5; i++ {
		m.Tick(context.Background())
	}
	if got, want := aliveIDs(m), []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("alive = %v, want just self", got)
	}
	// With everyone else dead, self owns everything and routes are direct.
	if m.Owner("anything") != 0 {
		t.Fatal("sole survivor does not own the keyspace")
	}
}

func TestMembershipMarkDeadAndSnapshot(t *testing.T) {
	p := &fakeProber{}
	m := testMembership(t, p)
	m.MarkDead(3)
	if m.IsAlive(3) {
		t.Fatal("MarkDead(3) had no effect")
	}
	snap := m.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(snap))
	}
	if !snap[0].Self || !snap[0].Alive {
		t.Fatalf("snapshot self entry wrong: %+v", snap[0])
	}
	if snap[3].Alive {
		t.Fatalf("snapshot shows killed peer alive: %+v", snap[3])
	}
	// NextHop routes around the dead shard.
	if next := m.NextHop(3); next == 3 && m.Dim() > 1 {
		// Direct hop to a dead owner is legal only as a last resort; with
		// peers 1 and 2 alive an intermediate exists for 0→3.
		t.Fatalf("NextHop(3) went direct although intermediates are alive")
	}
}

func TestMembershipRunStopsOnCancel(t *testing.T) {
	p := &fakeProber{}
	p.set("http://b", errors.New("down"))
	m, err := New(Config{
		Self:          0,
		Peers:         []string{"http://a", "http://b"},
		ProbeInterval: time.Millisecond,
		Prober:        p,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ticks := make(chan int)
	done := make(chan struct{})
	go func() {
		m.Run(ctx, func(failures int) {
			select {
			case ticks <- failures:
			case <-ctx.Done():
			}
		})
		close(done)
	}()
	// onTick sees each round's failure count: the one down peer, then
	// none once it answers again.
	for i := 0; i < 3; i++ {
		if got := <-ticks; got != 1 {
			t.Fatalf("tick %d: onTick got %d failures, want 1", i, got)
		}
	}
	p.set("http://b", nil)
	// A round already in flight may still see the old answer.
	for got := <-ticks; got != 0; got = <-ticks {
		if got != 1 {
			t.Fatalf("onTick got %d failures, want 0 or 1", got)
		}
	}
	if got := <-ticks; got != 0 {
		t.Fatalf("onTick got %d failures after the peer recovered, want 0", got)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on context cancellation")
	}
}
