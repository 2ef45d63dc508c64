package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/project"
	"repro/internal/vec"
)

func TestNewTIGAndAccessors(t *testing.T) {
	tig := NewTIG(3, []int64{5, 7, 2}, []TIGEdge{
		{From: 0, To: 1, Weight: 4},
		{From: 0, To: 1, Weight: 2}, // duplicate edges accumulate
		{From: 1, To: 2, Weight: 1},
	})
	if tig.N != 3 {
		t.Fatalf("N = %d", tig.N)
	}
	if got := tig.Weight(0, 1); got != 6 {
		t.Fatalf("Weight(0,1) = %d, want 6 (accumulated)", got)
	}
	if tig.Weight(1, 0) != 0 || tig.Weight(2, 0) != 0 {
		t.Fatal("absent edges should weigh 0")
	}
	if got := tig.TotalTraffic(); got != 7 {
		t.Fatalf("TotalTraffic = %d", got)
	}
	if got := tig.OutDegree(0); got != 1 {
		t.Fatalf("OutDegree(0) = %d", got)
	}
	if got := tig.MaxOutDegree(); got != 1 {
		t.Fatalf("MaxOutDegree = %d", got)
	}
	if s := tig.Successors(0); len(s) != 1 || s[0] != 1 {
		t.Fatalf("Successors(0) = %v", s)
	}
	if s := tig.Successors(2); len(s) != 0 {
		t.Fatalf("Successors(2) = %v", s)
	}
	if !strings.Contains(tig.String(), "blocks: 3") || !strings.Contains(tig.String(), "traffic: 7") {
		t.Fatalf("String = %q", tig.String())
	}
	if tig.Loads[1] != 7 {
		t.Fatalf("Loads = %v", tig.Loads)
	}
}

func TestTIGEdgesSorted(t *testing.T) {
	tig := NewTIG(3, []int64{1, 1, 1}, []TIGEdge{
		{From: 2, To: 0, Weight: 1},
		{From: 0, To: 2, Weight: 1},
		{From: 0, To: 1, Weight: 1},
	})
	edges := tigEdges(tig)
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("edges not sorted: %v", edges)
		}
	}
}

func TestDepBreakdownSumsToWeight(t *testing.T) {
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tig := BuildTIG(p)
	for _, e := range tigEdges(tig) {
		var sum int64
		for dep, w := range tig.DepBreakdown(e.From, e.To) {
			if w != tig.WeightByDep(e.From, e.To, dep) {
				t.Fatalf("breakdown/accessor mismatch on %d->%d dep %d", e.From, e.To, dep)
			}
			sum += w
		}
		if sum != e.Weight {
			t.Fatalf("edge %d->%d: breakdown sums to %d, weight %d", e.From, e.To, sum, e.Weight)
		}
	}
	// Synthetic TIGs have no breakdown.
	syn := NewTIG(2, []int64{1, 1}, []TIGEdge{{From: 0, To: 1, Weight: 3}})
	if syn.DepBreakdown(0, 1) != nil || syn.WeightByDep(0, 1, 0) != 0 {
		t.Fatal("synthetic TIG should have no dependence breakdown")
	}
	if tig.DepBreakdown(0, 0) != nil {
		t.Fatal("self breakdown should be nil")
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	p, err := Partition(l1Projected(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt GroupOf: point claimed by the wrong group.
	saved := p.GroupOf[0]
	p.GroupOf[0] = (saved + 1) % int32(p.NumBlocks())
	if err := CheckInvariants(p); err == nil {
		t.Fatal("corrupted GroupOf not detected")
	}
	p.GroupOf[0] = saved

	// Corrupt a group's base, which Base derives from its component's
	// seed: the members leave the group line.
	n := len(p.PS.Pi)
	base := vec.Int(p.seeds[p.Component(1)*n : p.Component(1)*n+n])
	base[0]++
	if err := CheckInvariants(p); err == nil {
		t.Fatal("corrupted group base not detected")
	}
	base[0]--

	// Shift the bases one step forward: a first member falls to slot −1,
	// outside [0, r).
	saveBase := base.Clone()
	copy(base, base.Add(p.Grouping.Scaled))
	if err := CheckInvariants(p); err == nil {
		t.Fatal("member at slot -1 not detected")
	}
	copy(base, saveBase)

	// Corrupt a group's lattice coordinate: its base moves by r·d_l^p.
	p.coords[p.axes]++
	if err := CheckInvariants(p); err == nil {
		t.Fatal("corrupted group coordinates not detected")
	}
	p.coords[p.axes]--

	// Every line in one block: same-hyperplane points share it. The
	// regrouped copy drops group geometry and r, so only Lemma 1 can
	// catch this.
	q := regrouped(p)
	for pt := range q.GroupOf {
		q.movePoint(pt, 0)
	}
	if err := CheckInvariants(q); err == nil {
		t.Fatal("Lemma 1 violation not detected")
	}

	// Members out of slot order.
	g := 0
	for len(p.Members(g)) < 2 {
		g++
	}
	ms := p.Members(g)
	ms[0], ms[1] = ms[1], ms[0]
	if err := CheckInvariants(p); err == nil {
		t.Fatal("members out of slot order not detected")
	}
	ms[0], ms[1] = ms[1], ms[0]

	// Member offsets that run backwards.
	p.start[1], p.start[2] = p.start[2], p.start[1]
	if err := CheckInvariants(p); err == nil {
		t.Fatal("backward member offsets not detected")
	}
	p.start[1], p.start[2] = p.start[2], p.start[1]

	// After restoring everything the check passes again.
	if err := CheckInvariants(p); err != nil {
		t.Fatalf("restored partitioning fails: %v", err)
	}
}

func TestCheckTheorem2CatchesViolation(t *testing.T) {
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A fabricated TIG with a hub exceeding the bound.
	var edges []TIGEdge
	for v := 1; v <= Theorem2Bound(p)+1; v++ {
		edges = append(edges, TIGEdge{From: 0, To: v, Weight: 1})
	}
	bad := NewTIG(p.NumBlocks(), make([]int64, p.NumBlocks()), edges)
	if err := CheckTheorem2(p, bad); err == nil {
		t.Fatal("Theorem 2 violation not detected")
	}
}

// TestRetainedTablesHoldNoPointers checks by reflection that every table
// a Partitioning, a TIG or a projected structure keeps is pointer-free,
// so the collector never scans the bulk of a cached plan or Π-stage. A
// slice field's own header points at its backing array; what counts is
// what the array holds. The only pointer-holding fields are the
// documented references to shared data: Partitioning.PS and TIG.part,
// the structure and partitioning they were built from, Partitioning.
// Grouping and Aux, the grouping and auxiliary vectors of the Stage every
// partitioning built on it shares, and the projected structure's nest
// (Orig), its per-dependence table (Deps) and its point index (the dense
// table behind one pointer, or the fallback map). The structure's
// per-line columns (the points, fibers and line graph) must not hold
// pointers.
func TestRetainedTablesHoldNoPointers(t *testing.T) {
	shared := map[string]bool{
		"Partitioning.PS": true, "Partitioning.Grouping": true, "Partitioning.Aux": true,
		"TIG.part":       true,
		"Structure.Orig": true, "Structure.Deps": true, "Structure.lattice": true, "Structure.index": true,
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Partitioning{}), reflect.TypeOf(TIG{}), reflect.TypeOf(project.Structure{})} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			name := typ.Name() + "." + f.Name
			held := f.Type
			if held.Kind() == reflect.Slice {
				held = held.Elem()
			}
			if hasPointers(held) && !shared[name] {
				t.Errorf("%s (%v) holds pointers", name, f.Type)
			}
		}
	}
}

// hasPointers reports whether a value of type typ holds a pointer the
// collector must follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
