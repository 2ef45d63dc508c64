package project

import (
	"math/rand"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// buildRandom projects the first non-empty generated nest drawn from rng
// under its generated Π.
func buildRandom(rng *rand.Rand) (*Structure, error) {
	for trial := 0; ; trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			return nil, err
		}
		return Project(st, c.Pi)
	}
}

// TestLatticeIndexAgreesWithMap probes the dense lattice index against a
// string-keyed reference map on random structures: every point must resolve
// to its position, and random lattice probes (on and off the point set)
// must agree on membership.
func TestLatticeIndexAgreesWithMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		ps, err := buildRandom(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := make(map[string]int, ps.NumPoints())
		for i, p := range pointList(ps) {
			ref[p.Key()] = i
		}
		for i, p := range pointList(ps) {
			if got := ps.IndexOf(p); got != i {
				t.Fatalf("trial %d: IndexOf(%v) = %d, want %d (dense=%v)", trial, p, got, i, ps.Dense())
			}
		}
		for probe := 0; probe < 200; probe++ {
			// Probe positions on the scaled hyperplane lattice: a point plus
			// random multiples of scaled projected dependence vectors, the
			// positions Algorithm 1's region growing actually queries.
			q := ps.Point(rng.Intn(ps.NumPoints())).Clone()
			for _, d := range ps.Deps {
				q = q.AddScaled(int64(rng.Intn(7))-3, d.Scaled)
			}
			want, ok := ref[q.Key()]
			if !ok {
				want = -1
			}
			if got := ps.IndexOf(q); got != want {
				t.Fatalf("trial %d: IndexOf(%v) = %d, want %d (dense=%v)", trial, q, got, want, ps.Dense())
			}
		}
	}
}

// TestLatticeSlotWalkMatchesIndexOf walks lines p + k·d through the
// bounding box of random dense structures by LatticeSlot and LatticeStep,
// from on- and off-hyperplane starts, and checks that PointAtSlot plus an
// Equal check names the same point as IndexOf at every position. It also
// checks Bounds against the points, on the dense index and on the map
// fallback.
func TestLatticeSlotWalkMatchesIndexOf(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	defer func(old int64) { latticeDenseCap = old }(latticeDenseCap)
	for trial := 0; trial < 60; trial++ {
		latticeDenseCap = 1 << 22
		ps, err := buildRandom(rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		latticeDenseCap = 0
		sparse, err := buildRandom(rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		if !ps.Dense() || sparse.Dense() {
			t.Fatalf("trial %d: cap override ineffective", trial)
		}
		lo, hi := ps.Bounds()
		slo, shi := sparse.Bounds()
		for j := range lo {
			wlo, whi := ps.Point(0)[j], ps.Point(0)[j]
			for _, p := range pointList(ps) {
				wlo, whi = min(wlo, p[j]), max(whi, p[j])
			}
			if lo[j] != wlo || hi[j] != whi || slo[j] != wlo || shi[j] != whi {
				t.Fatalf("trial %d: Bounds axis %d = [%d,%d] dense, [%d,%d] map, want [%d,%d]",
					trial, j, lo[j], hi[j], slo[j], shi[j], wlo, whi)
			}
		}
		inBox := func(q vec.Int) bool {
			for j, x := range q {
				if x < lo[j] || x > hi[j] {
					return false
				}
			}
			return true
		}
		for probe := 0; probe < 40; probe++ {
			start := ps.Point(rng.Intn(ps.NumPoints())).Clone()
			if probe%4 == 3 {
				start[rng.Intn(len(start))]++ // off the hyperplane
			}
			d := ps.Deps[rng.Intn(len(ps.Deps))].Scaled
			step := ps.LatticeStep(d)
			// Back up to the first in-box position of the line.
			for inBox(start.Sub(d)) && !d.IsZero() {
				start = start.Sub(d)
			}
			slot, ok := ps.LatticeSlot(start)
			if !ok {
				t.Fatalf("trial %d: LatticeSlot not ok on a dense index", trial)
			}
			for q := start; inBox(q); q = q.Add(d) {
				got := ps.PointAtSlot(slot)
				if got >= 0 && !ps.Point(got).Equal(q) {
					got = -1
				}
				if want := ps.IndexOf(q); got != want {
					t.Fatalf("trial %d: slot walk at %v names %d, IndexOf %d", trial, q, got, want)
				}
				if d.IsZero() {
					break
				}
				slot += step
			}
		}
		if _, ok := sparse.LatticeSlot(sparse.Point(0)); ok || sparse.LatticeStep(sparse.Deps[0].Scaled) != 0 {
			t.Fatalf("trial %d: the map fallback reports a lattice slot", trial)
		}
	}
}

// TestLatticeFallbackMatchesDense forces the map fallback (by shrinking the
// dense cap) and checks that the two lookup paths agree everywhere.
func TestLatticeFallbackMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	defer func(old int64) { latticeDenseCap = old }(latticeDenseCap)
	for trial := 0; trial < 50; trial++ {
		latticeDenseCap = 1 << 22
		dense, err := buildRandom(rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		latticeDenseCap = 0
		sparse, err := buildRandom(rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		if !dense.Dense() || sparse.Dense() {
			t.Fatalf("trial %d: cap override ineffective (dense=%v sparse=%v)", trial, dense.Dense(), sparse.Dense())
		}
		for probe := 0; probe < 300; probe++ {
			q := dense.Point(rng.Intn(dense.NumPoints())).Clone()
			for _, d := range dense.Deps {
				q = q.AddScaled(int64(rng.Intn(9))-4, d.Scaled)
			}
			if got, want := dense.IndexOf(q), sparse.IndexOf(q); got != want {
				t.Fatalf("trial %d: dense IndexOf(%v) = %d, map fallback = %d", trial, q, got, want)
			}
		}
	}
}

// widestDropVolume is the dense table volume the index would have if it
// dropped the widest coordinate with Π_k ≠ 0 instead of the last one.
func widestDropVolume(pi, lo, hi []int64) int64 {
	drop, widest := -1, int64(-1)
	for j := range pi {
		if e := hi[j] - lo[j] + 1; pi[j] != 0 && e > widest {
			drop, widest = j, e
		}
	}
	v := int64(1)
	for j := range pi {
		if j != drop {
			v *= hi[j] - lo[j] + 1
		}
	}
	return v
}

// TestLatticeTableVolumeOnMissGrid compares the dense table, which drops
// the last coordinate with Π_k ≠ 0 so that slot order is lexicographic,
// with the smaller table that dropping the widest such coordinate would
// give, over the sizes a plan-cache miss plans (2-D kernels 8 to 128 in
// steps of 3, 3-D kernels 4 to 28 in steps of 2) under each kernel's own
// Π and the searched one. Every grid plan must stay dense, and no kernel's
// table may grow by more than maxGrowth; the per-kernel worst ratio is
// logged so a kernel whose table grows sharply shows up.
func TestLatticeTableVolumeOnMissGrid(t *testing.T) {
	const maxGrowth = 2.0
	for _, name := range kernels.Names() {
		k, err := kernels.Lookup(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		from, to, step := int64(8), int64(128), int64(3)
		if k.Nest.Dims == 3 {
			from, to, step = 4, 28, 2
		}
		worst := 1.0
		for size := from; size <= to; size += step {
			k, st := kernelStructure(t, name, size)
			pis := []vec.Int{k.Pi}
			if sch, err := hyperplane.FindOptimal(st, 2); err == nil {
				pis = append(pis, sch.Pi)
			}
			for _, pi := range pis {
				ps, err := Project(st, pi)
				if err != nil {
					t.Fatal(err)
				}
				if !ps.Dense() {
					t.Fatalf("%s size %d Π=%v: fell back to the map", name, size, pi)
				}
				li := ps.lattice
				ratio := float64(len(li.table)) / float64(widestDropVolume(ps.Pi, li.lo, li.hi))
				if ratio > maxGrowth {
					t.Errorf("%s size %d Π=%v: table %d slots, %.2f× the widest-drop table", name, size, pi, len(li.table), ratio)
				}
				worst = max(worst, ratio)
			}
		}
		t.Logf("%-12s worst table growth over widest drop %.2f×", name, worst)
	}
}
