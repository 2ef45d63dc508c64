package main

import (
	"fmt"
	"reflect"
	"testing"
)

// requests flattens a workload into the request sequence it sends: the
// warm ops, then the timed ops.
func requests(w *Workload) []string {
	var out []string
	for _, k := range w.Warm {
		out = append(out, w.Keys[k].ResponseKey())
	}
	for _, op := range w.Ops {
		out = append(out, w.Keys[op.Key].ResponseKey())
	}
	return out
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 2)
		c, _ := generate(name, 8, 2)
		if !reflect.DeepEqual(requests(a), requests(b)) || !reflect.DeepEqual(a.Ops, b.Ops) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(requests(a), requests(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		if len(a.Ops) == 0 {
			t.Errorf("%s: no timed ops", name)
		}
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := generate("no-such-workload", 1, 10); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := generate(hitHot, 1, 0); err == nil {
		t.Error("zero seconds accepted")
	}
}

func TestHitHotOnlyRequestsWarmKeys(t *testing.T) {
	w, _ := generate(hitHot, 3, 1)
	if len(w.Keys) != hitKeys || len(w.Warm) != hitKeys {
		t.Fatalf("%d keys, %d warmed, want %d of each", len(w.Keys), len(w.Warm), hitKeys)
	}
	seen := map[string]bool{}
	kernels := map[string]bool{}
	for _, r := range w.Keys {
		seen[r.ResponseKey()] = true
		kernels[r.Kernel] = true
		if d := r.CubeDimOrDefault(); d < 2 || d > 4 {
			t.Errorf("%s: cube dim %d outside 2–4", r.ResponseKey(), d)
		}
	}
	if len(seen) != hitKeys {
		t.Errorf("%d distinct keys, want %d", len(seen), hitKeys)
	}
	if len(kernels) != len(kernels2D)+len(kernels3D) {
		t.Errorf("keys span %d kernels, want every built-in one", len(kernels))
	}
	for _, op := range w.Ops {
		if op.Fresh || op.Key >= hitKeys {
			t.Fatalf("timed op %+v is not a warmed key", op)
		}
	}
}

// TestMissColdNeverRepeatsABaseKey is what makes
// serve.computations_per_request exactly 1 on miss-cold.
func TestMissColdNeverRepeatsABaseKey(t *testing.T) {
	for _, seconds := range []int{1, 10, 60} {
		w, _ := generate(missCold, 5, seconds)
		seen := map[string]bool{}
		for _, k := range w.Warm {
			if r := &w.Keys[k]; seen[r.Key()] {
				t.Fatalf("seconds %d: warm-up base key %s repeats", seconds, r.Key())
			} else {
				seen[r.Key()] = true
			}
		}
		for _, op := range w.Ops {
			r := &w.Keys[op.Key]
			if seen[r.Key()] {
				t.Fatalf("seconds %d: base key %s repeats", seconds, r.Key())
			}
			seen[r.Key()] = true
			if !op.Fresh {
				t.Fatalf("seconds %d: op %+v not marked fresh", seconds, op)
			}
			if r.Size > 128 {
				t.Fatalf("%s exceeds the daemon's size limit", r.Key())
			}
		}
		if want := min(len(missGrid()), missOpsPerSecond*seconds/windows) * windows; len(w.Ops) != want {
			t.Errorf("seconds %d: %d ops, want %d", seconds, len(w.Ops), want)
		}
	}
}

func TestMissColdCoversTheGridAtTwentySeconds(t *testing.T) {
	a, _ := generate(missCold, 1, 20)
	b, _ := generate(missCold, 2, 20)
	set := func(w *Workload) map[string]bool {
		m := map[string]bool{}
		for _, r := range w.Keys {
			m[r.ResponseKey()] = true
		}
		return m
	}
	if n := len(missGrid()) * windows; len(a.Ops) != n || !reflect.DeepEqual(set(a), set(b)) {
		t.Errorf("seeds 1 and 2 time different key sets (%d and %d ops of %d keys)", len(a.Ops), len(b.Ops), n)
	}
}

// TestMissColdWindowsPlanTheSameMix is what lets a median over windows
// stand for the run: every window plans each kernel and size once and
// each merge factor and aux setting within one of equally often.
func TestMissColdWindowsPlanTheSameMix(t *testing.T) {
	w, _ := generate(missCold, 4, 20)
	per := len(w.Ops) / windows
	for win := 0; win < windows; win++ {
		sizes := map[string]bool{}
		combos := map[string]int{}
		for _, op := range w.Ops[win*per : (win+1)*per] {
			r := &w.Keys[op.Key]
			sizes[fmt.Sprintf("%s/%d", r.Kernel, r.Size)] = true
			combos[fmt.Sprintf("%d/%t", r.MergeFactor, r.NoAux)]++
		}
		if len(sizes) != per {
			t.Errorf("window %d: %d kernel sizes in %d ops, want each once", win, len(sizes), per)
		}
		lo, hi := per, 0
		for _, c := range combos {
			lo, hi = min(lo, c), max(hi, c)
		}
		if len(combos) != windows || hi-lo > 1 {
			t.Errorf("window %d: merge/aux settings used %d to %d times over %d settings", win, lo, hi, len(combos))
		}
	}
}

func TestTierChurnMix(t *testing.T) {
	w, _ := generate(tierChurn, 9, 10)
	fill := map[string]bool{}
	for _, k := range w.Warm {
		fill[w.Keys[k].Key()] = true
	}
	fresh := map[string]bool{}
	nFresh := 0
	for i, op := range w.Ops {
		r := &w.Keys[op.Key]
		if !op.Fresh {
			if !fill[r.Key()] {
				t.Fatalf("op %d re-touches %s, which the fill never wrote", i, r.Key())
			}
			continue
		}
		nFresh++
		if fill[r.Key()] || fresh[r.Key()] {
			t.Fatalf("op %d: fresh key %s was seen before", i, r.Key())
		}
		fresh[r.Key()] = true
	}
	if nFresh*churnFreshEvery != len(w.Ops) {
		t.Errorf("%d fresh of %d ops, want one in %d", nFresh, len(w.Ops), churnFreshEvery)
	}
	if freshOps(w.Ops) != nFresh {
		t.Errorf("freshOps = %d, want %d", freshOps(w.Ops), nFresh)
	}
}
