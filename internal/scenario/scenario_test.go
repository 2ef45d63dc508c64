package scenario

import (
	"math/rand"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// params are a row's fixed inputs. n is the row's load: requests for
// crash and cluster, requests per cycle for partition, keys for tiered.
type params struct {
	seed   int64
	n      int
	shards int
	cycles int
}

// scenarios is the grid TestScenario runs, one row per fault the daemon
// must survive.
var scenarios = []struct {
	name string
	// proc rows run loopmapd subprocesses, to SIGKILL them.
	proc bool
	params
	run func(*testing.T, params)
}{
	{"crash", true, params{seed: 1, n: 64}, crash},
	{"cluster", true, params{seed: 1, n: 48, shards: 3}, elasticCluster},
	{"partition", false, params{seed: 1, n: 24, shards: 4, cycles: 6}, partition},
	{"diskchaos", false, params{seed: 1, cycles: 6}, diskFaults},
	{"tiered", true, params{seed: 1, n: 96}, tieredStore},
}

func TestScenario(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			if sc.proc && testing.Short() {
				t.Skip("starts loopmapd subprocesses")
			}
			t.Logf("seed %d", sc.seed)
			sc.run(t, sc.params)
		})
	}
}

// wantHit is a verify check that every answer is a cache hit.
func wantHit(t *testing.T, phase string) func(item, reply) {
	return func(it item, r reply) {
		if r.cache != api.CacheHit {
			t.Errorf("%s: %s answered %q, want a warm hit", phase, it.key(), r.cache)
		}
	}
}

// crash SIGKILLs a durable daemon halfway through p.n concurrent mixed
// requests, restarts it from the same store, and requires every answer
// acknowledged before the kill to come back warm, byte-identical and
// equal to a fresh computation, and the restarted daemon to stop
// cleanly on SIGTERM.
func crash(t *testing.T, p params) {
	dir := t.TempDir()
	d := startProc(t, "-disk-cache-dir", dir)
	c := newClient(d.url)
	ready(t, c.Ready)

	led := newLedger()
	var done atomic.Int64
	drive(mixedLoad(p.n, p.seed), 8, func(it item) {
		if r, err := send(c, it); err == nil {
			led.put(it, r)
		}
		if done.Add(1) == int64(p.n/2) {
			d.kill()
		}
	})

	d2 := startProc(t, "-disk-cache-dir", dir)
	c2 := newClient(d2.url)
	ready(t, c2.Ready)
	led.verify(t, "after restart", c2, wantHit(t, "after restart"))
	matchesFresh(t, led)
	d2.terminate(t)
}

// tieredKey is key i of the tiered row's keyspace: a distinct cache key
// per i, with answers a few KiB each, enough to roll a 32 KiB memtable
// over constantly.
func tieredKey(i int, seed int64) item {
	rng := rand.New(rand.NewSource(seed + int64(i)*2654435761))
	cube := 1 + rng.Intn(4)
	return planItem(api.PlanRequest{
		Kernel: []string{"l1", "matvec", "matmul"}[i/29%3], Size: int64(4 + i%29), CubeDim: &cube,
		MergeFactor: int64(1 + i/87%3), NoAux: i/261%2 == 1,
	})
}

var walRecordsRe = regexp.MustCompile(`msg="warm start".*\bwal_records=(\d+)`)

// tieredStore fills a daemon with a 1 MiB RAM cache and a churny disk
// tier with p.n keys, SIGKILLs it as soon as a compaction runs, and
// restarts it. The restart must replay only the WAL tail, and every
// acknowledged answer must come back warm and byte-identical from the
// disk tier without a single recomputation.
func tieredStore(t *testing.T, p params) {
	args := []string{"-disk-cache-dir", t.TempDir(), "-cache-mb", "1", "-disk-memtable-kb", "32", "-compact-trigger", "2"}
	d := startProc(t, args...)
	c := newClient(d.url)
	ready(t, c.Ready)

	keys := make([]item, p.n)
	for i := range keys {
		keys[i] = tieredKey(i, p.seed)
	}
	led := newLedger()
	drive(keys, 8, func(it item) {
		r, err := send(c, it)
		if err != nil {
			t.Errorf("filling %s: %v", it.key(), err)
			return
		}
		led.put(it, r)
	})
	if t.Failed() {
		t.FailNow()
	}
	m1 := d.metrics(t)
	if m1["loopmapd_tiered_flushes_total"] == 0 {
		t.Fatal("no memtable flush during the fill: the keyspace never left RAM")
	}

	// Churn filler keys past the acknowledged ones and SIGKILL the
	// daemon as soon as the compaction counter moves.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var filler atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				send(c, tieredKey(p.n+int(filler.Add(1))-1, p.seed)) // fails once the kill lands
			}
		}()
	}
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	compactions := m1["loopmapd_tiered_compactions_total"]
	waitFor(t, 30*time.Second, "a compaction under churn", func() bool {
		return d.metrics(t)["loopmapd_tiered_compactions_total"] > compactions
	})
	d.kill()
	halt()
	t.Logf("SIGKILL after %d filler keys", filler.Load())

	d2 := startProc(t, args...)
	c2 := newClient(d2.url)
	ready(t, c2.Ready)
	acked := int64(len(led.entries()))
	// Each acknowledged plan wrote about two WAL records, so a replay of
	// the whole history would read more records than there are keys.
	wal, err := strconv.ParseInt(d2.find(walRecordsRe), 10, 64)
	if err != nil {
		t.Fatalf("no wal_records in the warm-start line: %v", err)
	}
	if wal >= acked {
		t.Fatalf("restart replayed %d WAL records for %d acknowledged keys: history replay, not the unflushed tail", wal, acked)
	}
	m2 := d2.metrics(t)
	if m2["loopmapd_tiered_segments"] == 0 {
		t.Fatal("no live segments after restart: the manifest did not survive the crash")
	}
	// Plans are large, so the 1 MiB cache holds a sliver of the keyspace
	// while the tier holds all of it (a request record and a frame per key).
	if ram := m2["loopmapd_cache_entries"]; ram*10 > acked {
		t.Fatalf("the RAM cache holds %d of %d keys after restart: the keyspace never overflowed RAM", ram, acked)
	}
	if n := m2["loopmapd_tiered_keys"]; n < 2*acked {
		t.Fatalf("the tier holds %d records for %d keys: the keyspace is not disk-resident", n, acked)
	}

	led.verify(t, "after restart", c2, wantHit(t, "after restart"))
	m3 := d2.metrics(t)
	if n := m3["loopmapd_plan_computations_total"] - m2["loopmapd_plan_computations_total"]; n != 0 {
		t.Fatalf("%d plans recomputed after restart: the disk tier should have served them", n)
	}
	if m3["loopmapd_tiered_disk_hits_total"] == m2["loopmapd_tiered_disk_hits_total"] {
		t.Fatal("no answer after restart came from the disk tier")
	}
	matchesFresh(t, led)
	d2.terminate(t)
}
