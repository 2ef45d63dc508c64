package mapping

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/project"
)

// degradedCase maps a matvec partitioning onto a dim-cube.
func degradedCase(t *testing.T, size int64, dim int) (*core.Partitioning, *core.TIG, *Result) {
	t.Helper()
	k := kernels.MatVec(size)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := hyperplane.NewSchedule(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, sch.Pi)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.Partition(ps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapPartitioning(part, dim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return part, core.BuildTIG(part), m
}

func TestDegradeMigratesOffFailedNodes(t *testing.T) {
	_, tig, m := degradedCase(t, 32, 4)
	for _, failed := range [][]int{{0}, {3}, {0, 5}, {1, 2, 7}} {
		d, stats, err := Degrade(m, tig, failed, nil)
		if err != nil {
			t.Fatalf("Degrade(%v): %v", failed, err)
		}
		isFailed := map[int]bool{}
		for _, n := range failed {
			isFailed[n] = true
		}
		for b, n := range d.NodeOf {
			if isFailed[n] {
				t.Fatalf("failed=%v: block %d still on dead node %d", failed, b, n)
			}
			if n != m.NodeOf[b] && !isFailed[m.NodeOf[b]] {
				t.Fatalf("failed=%v: block %d moved from healthy node %d", failed, b, m.NodeOf[b])
			}
		}
		// Every dead node that hosted blocks must be adopted by a
		// surviving node, and on an intact-links cube the Gray-code
		// neighbourhood guarantees a 1-hop takeover.
		for _, n := range failed {
			if len(m.Clusters[n]) == 0 {
				continue
			}
			q := d.TakenBy[n]
			if q < 0 || isFailed[q] {
				t.Fatalf("failed=%v: node %d adopted by %d", failed, n, q)
			}
		}
		if stats.MigratedBlocks == 0 {
			t.Fatalf("failed=%v: no blocks migrated", failed)
		}
		if stats.MaxMigrationHops != 1 {
			t.Fatalf("failed=%v: migration hops %d, want 1 (no link failures, survivors adjacent)", failed, stats.MaxMigrationHops)
		}
		if stats.HopWeightAfter != stats.HopWeightBefore+stats.ExtraHopWords {
			t.Fatalf("failed=%v: inconsistent hop accounting: %+v", failed, stats)
		}
	}
}

func TestDegradeRoutesAroundFailures(t *testing.T) {
	_, tig, m := degradedCase(t, 32, 3)
	// Kill node 1 and the 0–2 link: the direct e-cube routes 0→3 (via 1 or
	// 2) are now constrained.
	d, _, err := Degrade(m, tig, []int{1}, [][2]int{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 3}, {0, 2}, {4, 3}} {
		src, dst := pair[0], pair[1]
		route := d.Route(src, dst)
		if route[0] != src || route[len(route)-1] != dst {
			t.Fatalf("route %v does not join %d→%d", route, src, dst)
		}
		if len(route)-1 != d.Hops(src, dst) {
			t.Fatalf("route %v length %d != Hops %d", route, len(route)-1, d.Hops(src, dst))
		}
		for i := 1; i < len(route); i++ {
			u, v := route[i-1], route[i]
			if d.Failed[u] || d.Failed[v] {
				t.Fatalf("route %v crosses failed node", route)
			}
			if u == 0 && v == 2 || u == 2 && v == 0 {
				t.Fatalf("route %v crosses failed link 0–2", route)
			}
			if d.Cube.Distance(u, v) != 1 {
				t.Fatalf("route %v uses non-link %d–%d", route, u, v)
			}
		}
	}
	// 0→2 direct link is down, and relay node 1 is dead... a detour must
	// cost more than the intact distance.
	if d.Hops(0, 2) <= 1 {
		t.Fatalf("Hops(0,2)=%d despite dead link", d.Hops(0, 2))
	}
}

func TestDegradeErrors(t *testing.T) {
	_, tig, m := degradedCase(t, 16, 2)
	cases := []struct {
		name  string
		nodes []int
		links [][2]int
	}{
		{"all nodes", []int{0, 1, 2, 3}, nil},
		{"out of range node", []int{4}, nil},
		{"negative node", []int{-1}, nil},
		{"out of range link", nil, [][2]int{{0, 9}}},
		{"non-link", nil, [][2]int{{0, 3}}},
		{"self link", nil, [][2]int{{2, 2}}},
		// Node 0 isolated from the rest: links 0-1 and 0-2 down.
		{"partitioned", nil, [][2]int{{0, 1}, {0, 2}}},
	}
	for _, c := range cases {
		_, _, err := Degrade(m, tig, c.nodes, c.links)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrDegraded) {
			t.Errorf("%s: error %v does not wrap ErrDegraded", c.name, err)
		}
	}
	if _, _, err := Degrade(nil, tig, []int{0}, nil); !errors.Is(err, ErrDegraded) {
		t.Errorf("nil base: err = %v", err)
	}
}

func TestDegradeDeterministic(t *testing.T) {
	_, tig, m := degradedCase(t, 32, 4)
	a, sa, err := Degrade(m, tig, []int{5, 9}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Degrade(m, tig, []int{9, 5}, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for blk := range a.NodeOf {
		if a.NodeOf[blk] != b.NodeOf[blk] {
			t.Fatalf("block %d placement differs across equivalent inputs: %d vs %d", blk, a.NodeOf[blk], b.NodeOf[blk])
		}
	}
	if sa.MigratedBlocks != sb.MigratedBlocks || sa.ExtraHopWords != sb.ExtraHopWords ||
		sa.MaxMigrationHops != sb.MaxMigrationHops {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
}
