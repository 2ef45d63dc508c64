// Degraded-mode remapping: when hypercube nodes or links fail, a mapped
// plan migrates the dead nodes' blocks to nearby survivors and reroutes
// traffic over the surviving subcube. This is exactly the structure the
// paper's Algorithm 2 pays for — Gray-code placement keeps communicating
// blocks on adjacent nodes, so a crashed node almost always has a healthy
// physical neighbour to take its blocks with one extra hop.
package mapping

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypercube"
)

// ErrDegraded wraps every failure to build a degraded mapping (all nodes
// failed, surviving cube partitioned, addresses out of range), so callers
// can classify it as a caller error.
var ErrDegraded = errors.New("mapping: degraded remap failed")

// maxDegradedDim bounds the cube dimension Degrade will build routing
// tables for: all-pairs BFS over the surviving graph stores two int32
// tables of N², so dim 10 (1024 nodes) costs 8 MB and dim 15 would cost
// 8 GB.
const maxDegradedDim = 10

// DegradationStats quantifies what the failures cost.
type DegradationStats struct {
	// FailedNodes are the dead nodes, sorted ascending.
	FailedNodes []int
	// FailedLinks is the count of distinct failed links (node failures not
	// included).
	FailedLinks int
	// MigratedBlocks counts blocks moved off dead nodes.
	MigratedBlocks int
	// MaxMigrationHops is the largest surviving-graph distance any block
	// migrated (1 when every dead node had a healthy physical neighbour —
	// the Gray-code adjacency case).
	MaxMigrationHops int
	// HopWeightBefore and HopWeightAfter are the TIG's total
	// weight×distance traffic under the original mapping (fault-free
	// distances) and under the degraded mapping (surviving-graph
	// distances).
	HopWeightBefore, HopWeightAfter int64
	// ExtraHopWords is HopWeightAfter − HopWeightBefore: the additional
	// word-hops the failures force onto the network. It can be negative —
	// migrating a dead node's blocks onto an adjacent survivor makes
	// their mutual edges local — even though the concentrated load always
	// inflates the makespan.
	ExtraHopWords int64
	// MakespanInflation is degraded/baseline makespan; zero until a caller
	// that simulates both fills it in (loopmap.Plan.RemapDegraded does).
	// Usually ≥ 1, but consolidation can push it below 1 when
	// communication dominates: co-located blocks stop paying t_start for
	// their mutual traffic, which under the paper's send-occupies-sender
	// model can outweigh the lost parallelism.
	MakespanInflation float64
}

// Degraded is a mapping over a hypercube with failed nodes and links:
// block placement avoiding dead nodes, plus shortest-path distances and
// routes over the surviving graph.
type Degraded struct {
	// Base is the intact mapping this degradation started from.
	Base *Result
	// Cube is the (intact) address space; failed elements are overlaid.
	Cube hypercube.Cube
	// NodeOf[blockID] is the block's node after migration; never a failed
	// node.
	NodeOf []int
	// TakenBy[node] is the survivor that adopted the node's blocks, or -1
	// for nodes that did not fail (or hosted no blocks).
	TakenBy []int
	// Failed[node] reports node death.
	Failed []bool

	// dist and next are all-pairs shortest-path tables over the surviving
	// graph (failed nodes excluded, failed links excluded); -1 marks
	// unreachable or failed entries.
	dist [][]int32
	next [][]int32
}

// Degrade builds a degraded mapping: blocks of failed nodes migrate to
// the nearest healthy node over the surviving subcube (a Gray-code
// physical neighbour when one survives; ties break to the lowest
// address), and Hops/Route reroute every message around the failures. The
// TIG t sizes the before/after traffic stats; it may be nil when only the
// placement is wanted.
func Degrade(base *Result, t *core.TIG, failedNodes []int, failedLinks [][2]int) (*Degraded, *DegradationStats, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("%w: no base mapping", ErrDegraded)
	}
	cube := base.Cube
	if cube.Dim > maxDegradedDim {
		return nil, nil, fmt.Errorf("%w: cube dimension %d exceeds the degraded-routing maximum %d (the all-pairs tables would need %d² entries)",
			ErrDegraded, cube.Dim, maxDegradedDim, cube.N)
	}
	failed := make([]bool, cube.N)
	for _, n := range failedNodes {
		if n < 0 || n >= cube.N {
			return nil, nil, fmt.Errorf("%w: failed node %d outside the %d-node cube", ErrDegraded, n, cube.N)
		}
		failed[n] = true
	}
	sortedFailed := make([]int, 0, len(failedNodes))
	for n, f := range failed {
		if f {
			sortedFailed = append(sortedFailed, n)
		}
	}
	if len(sortedFailed) == cube.N {
		return nil, nil, fmt.Errorf("%w: all %d nodes failed", ErrDegraded, cube.N)
	}

	// linkDown holds failed links (normalized), independent of node death.
	linkDown := make(map[[2]int]bool, len(failedLinks))
	for _, l := range failedLinks {
		a, b := l[0], l[1]
		if a < 0 || b < 0 || a >= cube.N || b >= cube.N {
			return nil, nil, fmt.Errorf("%w: failed link (%d, %d) outside the %d-node cube", ErrDegraded, a, b, cube.N)
		}
		if a == b {
			return nil, nil, fmt.Errorf("%w: failed link (%d, %d) is not a link", ErrDegraded, a, b)
		}
		if cube.Distance(a, b) != 1 {
			return nil, nil, fmt.Errorf("%w: (%d, %d) is not a hypercube link (addresses differ in %d bits)", ErrDegraded, a, b, cube.Distance(a, b))
		}
		if a > b {
			a, b = b, a
		}
		linkDown[[2]int{a, b}] = true
	}
	linkUp := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return !linkDown[[2]int{a, b}]
	}

	d := &Degraded{
		Base:    base,
		Cube:    cube,
		NodeOf:  append([]int(nil), base.NodeOf...),
		TakenBy: make([]int, cube.N),
		Failed:  failed,
	}
	for i := range d.TakenBy {
		d.TakenBy[i] = -1
	}

	// All-pairs BFS over the surviving graph: healthy endpoints, healthy
	// intermediates, un-failed links. next[s][v] is the first hop from s
	// toward v, so Route reconstructs paths without storing them.
	d.dist = make([][]int32, cube.N)
	d.next = make([][]int32, cube.N)
	queue := make([]int32, 0, cube.N)
	for s := 0; s < cube.N; s++ {
		ds := make([]int32, cube.N)
		ns := make([]int32, cube.N)
		for i := range ds {
			ds[i], ns[i] = -1, -1
		}
		d.dist[s], d.next[s] = ds, ns
		if failed[s] {
			continue
		}
		ds[s] = 0
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			for bit := 0; bit < cube.Dim; bit++ {
				v := u ^ (1 << uint(bit))
				if failed[v] || ds[v] >= 0 || !linkUp(u, v) {
					continue
				}
				ds[v] = ds[u] + 1
				if u == s {
					ns[v] = int32(v)
				} else {
					ns[v] = ns[u]
				}
				queue = append(queue, int32(v))
			}
		}
	}

	stats := &DegradationStats{FailedNodes: sortedFailed, FailedLinks: len(linkDown)}

	// Migrate each dead node's blocks to its nearest survivor. The dead
	// node's own un-failed links are usable for this one-shot state
	// transfer, so takeover distance is a BFS from the dead node whose
	// interior vertices are healthy; Hamming distance breaks the (rare)
	// case of a dead node with every incident link down.
	takeoverDist := make([]int32, cube.N)
	for _, dead := range sortedFailed {
		if len(base.Clusters) > dead && len(base.Clusters[dead]) == 0 {
			continue
		}
		for i := range takeoverDist {
			takeoverDist[i] = -1
		}
		takeoverDist[dead] = 0
		queue = append(queue[:0], int32(dead))
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			if u != dead && failed[u] {
				continue // dead relay: reachable but cannot forward
			}
			for bit := 0; bit < cube.Dim; bit++ {
				v := u ^ (1 << uint(bit))
				if takeoverDist[v] >= 0 || !linkUp(u, v) {
					continue
				}
				takeoverDist[v] = takeoverDist[u] + 1
				queue = append(queue, int32(v))
			}
		}
		best, bestDist := -1, int32(1<<30)
		for v := 0; v < cube.N; v++ {
			if failed[v] || takeoverDist[v] < 0 {
				continue
			}
			if takeoverDist[v] < bestDist {
				best, bestDist = v, takeoverDist[v]
			}
		}
		if best < 0 {
			// Every incident link is down: fall back to the Hamming-nearest
			// survivor (state restored from the checkpoint store, not over
			// the dead node's links).
			for v := 0; v < cube.N; v++ {
				if failed[v] {
					continue
				}
				if hd := int32(cube.Distance(dead, v)); best < 0 || hd < bestDist {
					best, bestDist = v, hd
				}
			}
		}
		d.TakenBy[dead] = best
		migrated := 0
		for b, n := range d.NodeOf {
			if n == dead {
				d.NodeOf[b] = best
				migrated++
			}
		}
		stats.MigratedBlocks += migrated
		if migrated > 0 && int(bestDist) > stats.MaxMigrationHops {
			stats.MaxMigrationHops = int(bestDist)
		}
	}

	// Every pair of block-hosting nodes must stay mutually reachable: a
	// surviving graph that separates communicating hosts cannot carry the
	// dataflow. Healthy nodes hosting nothing may be stranded harmlessly.
	hosts := make([]int, 0, cube.N)
	hosting := make([]bool, cube.N)
	for _, n := range d.NodeOf {
		if n >= 0 && !hosting[n] {
			hosting[n] = true
			hosts = append(hosts, n)
		}
	}
	for _, u := range hosts {
		for _, v := range hosts {
			if d.dist[u][v] < 0 {
				return nil, nil, fmt.Errorf("%w: surviving cube is partitioned (no route between block hosts %d and %d)", ErrDegraded, u, v)
			}
		}
	}

	if t != nil {
		stats.HopWeightBefore = EvaluateGeneral(t, base.NodeOf, cube.N, cube.Distance).HopWeight
		stats.HopWeightAfter = EvaluateGeneral(t, d.NodeOf, cube.N, d.Hops).HopWeight
		stats.ExtraHopWords = stats.HopWeightAfter - stats.HopWeightBefore
	}
	return d, stats, nil
}

// Hops returns the surviving-graph shortest-path length between two
// healthy nodes. It panics on a failed or unreachable endpoint — the
// degraded placement guarantees no block sits on one.
func (d *Degraded) Hops(a, b int) int {
	h := d.dist[a][b]
	if h < 0 {
		panic(fmt.Sprintf("mapping: no degraded route from %d to %d", a, b))
	}
	return int(h)
}

// Reachable reports whether the surviving graph connects a and b; it is
// false when either endpoint failed.
func (d *Degraded) Reachable(a, b int) bool { return d.dist[a][b] >= 0 }

// Route returns a shortest surviving-graph path from src to dst,
// inclusive of both endpoints.
func (d *Degraded) Route(src, dst int) []int {
	if d.dist[src][dst] < 0 {
		panic(fmt.Sprintf("mapping: no degraded route from %d to %d", src, dst))
	}
	path := []int{src}
	for cur := src; cur != dst; {
		cur = int(d.next[cur][dst])
		path = append(path, cur)
	}
	return path
}

// Evaluate computes mapping statistics of a TIG under the degraded
// placement and surviving-graph distances.
func (d *Degraded) Evaluate(t *core.TIG) Stats {
	return EvaluateGeneral(t, d.NodeOf, d.Cube.N, d.Hops)
}
