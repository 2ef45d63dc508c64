// Package mapping implements Algorithm 2 of the paper (§IV): mapping the
// partitioned blocks of a nested loop onto a hypercube.
//
// Phase I (cluster formation) recursively bisects the set of blocks n
// times, cycling round-robin over the grouping/auxiliary axes (the paper's
// `i = j mod β`), so that neighbouring blocks stay in the same cluster.
// Phase II (cluster allocation) numbers the 2^{p_i} slices of each axis
// with a p_i-bit Gray code and concatenates the per-axis fields into an
// n-bit node address; each cluster is placed on the processor with the
// identical binary address, which puts axis-neighbouring clusters on
// physically adjacent hypercube nodes.
//
// Baseline mappings (Linear, Random) and mapping quality metrics are
// provided for the ablation experiments.
package mapping

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/ints"
	"repro/internal/pool"
)

// Item is one mappable task: a partitioned block with its lattice
// coordinates along the grouping/auxiliary axes.
type Item struct {
	// ID is the block/TIG vertex id.
	ID int
	// Component separates region-growing components; blocks of different
	// components are never interleaved inside a sort.
	Component int
	// Coords are the block's integer lattice coordinates (axis 0 is the
	// grouping vector, axis 1+j the j-th auxiliary vector), as a
	// partitioning keeps them.
	Coords []int32
}

// AxisPolicy selects how Phase I chooses the bisection axis at each step.
type AxisPolicy int

const (
	// RoundRobin is the paper's rule: axis = step mod numAxes.
	RoundRobin AxisPolicy = iota
	// WidestFirst picks the axis with the widest coordinate span inside
	// the largest cluster (ablation alternative).
	WidestFirst
)

// ErrCubeTooSmall is returned when the target hypercube cannot satisfy the
// requested placement — with Options.Exclusive, a cube with fewer nodes
// than there are blocks.
var ErrCubeTooSmall = errors.New("mapping: cube too small")

// maxCubeDim bounds the hypercube dimension Algorithm 2 will materialize:
// the result allocates per-node cluster slices, so an unchecked dimension
// from external input could exhaust memory.
const maxCubeDim = 30

// Options tunes Algorithm 2.
type Options struct {
	Policy AxisPolicy
	// Exclusive demands one block per node — the fine-grain regime where
	// every partitioned block is an independent task. Mapping fails with
	// ErrCubeTooSmall when the cube has fewer nodes than blocks. The
	// default (false) follows the paper: clusters of blocks share nodes.
	Exclusive bool
}

// Result is a completed mapping of blocks onto a hypercube.
type Result struct {
	Cube hypercube.Cube
	// NodeOf[blockID] is the hypercube node the block is placed on.
	NodeOf []int
	// Clusters[node] lists the block IDs placed on that node.
	Clusters [][]int
	// BitsPerAxis records p_i, the number of bisections along each axis.
	BitsPerAxis []int
}

// MapItems runs Algorithm 2 on the given items for a dim-dimensional cube.
func MapItems(items []Item, dim int, opt Options) (*Result, error) {
	b := getBisection()
	defer putBisection(b)
	return b.mapCube(items, dim, opt, nil)
}

// mapCube runs Algorithm 2 on the items with b as Phase I's state,
// building the result into t (see Tables).
func (b *bisection) mapCube(items []Item, dim int, opt Options, t *Tables) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("mapping: no items")
	}
	if dim < 0 {
		return nil, fmt.Errorf("mapping: negative cube dimension %d", dim)
	}
	if dim > maxCubeDim {
		return nil, fmt.Errorf("mapping: cube dimension %d exceeds the supported maximum %d", dim, maxCubeDim)
	}
	if opt.Exclusive && int64(len(items)) > int64(1)<<dim {
		return nil, fmt.Errorf("%w: exclusive placement of %d blocks needs more than the 2^%d available nodes", ErrCubeTooSmall, len(items), dim)
	}
	maxID, err := b.reset(items)
	if err != nil {
		return nil, err
	}
	// Phase I: each step halves every cluster along one axis, which is
	// also the address field the halves differ in.
	bits := t.ints(b.axes)
	for step := 0; step < dim; step++ {
		axis := step % b.axes
		if opt.Policy == WidestFirst {
			axis = b.widestAxis()
		}
		bits[axis]++
		b.split(axis, axis)
	}

	// Phase II: per-axis Gray fields concatenated into the node address,
	// axis 0 in the most significant position.
	b.shift = slices.Grow(b.shift[:0], b.axes)[:b.axes]
	b.idx = slices.Grow(b.idx[:0], b.axes)[:b.axes]
	shift, idx := b.shift, b.idx
	total := 0
	for a := b.axes - 1; a >= 0; a-- {
		shift[a] = total
		total += bits[a]
	}
	res := t.result()
	*res = Result{Cube: hypercube.New(dim), BitsPerAxis: bits}
	res.NodeOf, res.Clusters = b.place(maxID, res.Cube.N, t, func(c int) int {
		b.fieldIndices(c, idx)
		node := 0
		for a, x := range idx {
			node |= int(ints.Gray(uint64(x))) << uint(shift[a])
		}
		return node
	})
	return res, nil
}

// bisection is Phase I's state, shared by the cube and the mesh mappers.
// Clusters are numbered by their path of halves: cluster c splits into
// 2c, its lower half, and 2c+1. An axis's items are sorted once, on its
// first split, by Component, then the axis coordinate, then the other
// axes in order, then ID. That order restricted to one cluster is the
// cluster sorted, so a split halves every cluster in one pass over it.
// Items the order cannot tell apart share their ID and coordinates, so
// which of them lands in which half never shows in a result. When every
// sort key fits in 64 bits, an axis sorts packed integer keys instead of
// comparing items (see pack).
//
// A bisection is working memory that no result keeps: mappers take one
// from bisectionFree, reset it for their items, and give it back when
// they return, so a planner reuses its tables across plans. Every table
// a Result holds is allocated fresh.
type bisection struct {
	items []Item
	// axes is the longest Coords length, at least 1.
	axes int
	// orders[a] lists item positions in axis a's order; empty until axis
	// a is first split.
	orders [][]int32
	// packed reports that the orders sort packed keys (see pack): keys is
	// their scratch, compLo and lo[a] the least component and axis-a
	// coordinate, and compBits, bits[a] and posBits the widths of the
	// key's fields.
	packed            bool
	keys              []uint64
	compLo            int
	lo, hi            []int64
	bits              []int
	compBits, posBits int
	// cluster[i] is item i's cluster and size[c] cluster c's item count;
	// split builds the next sizes in spare and room, then swaps.
	cluster     []int
	size, spare []int
	room        []int
	// fields[s] is the address field split s halved along.
	fields []int
	// start and next are place's scratch.
	start, next []int
	// shift and idx are Phase II's per-axis address tables.
	shift, idx []int
	// itemBuf holds the items MapPartitioning builds from a partitioning.
	itemBuf []Item
}

// bisectionFree holds bisections between mappings, one per mapping that
// was in progress at once, up to bisectionsKept.
var bisectionFree = pool.NewFree[bisection](bisectionsKept)

const (
	bisectionsKept = 8
	// bisectionMaxItems bounds the tables a mapping gives back: a huge
	// mapping's are dropped rather than pinned for later plans.
	bisectionMaxItems = 1 << 16
)

func getBisection() *bisection { return bisectionFree.Get() }

// putBisection gives b back. It drops b's references to the caller's
// items, and the item buffer's to a partitioning's coordinates, so the
// free list pins no plan.
func putBisection(b *bisection) {
	clear(b.itemBuf)
	b.items = nil
	if cap(b.cluster) > bisectionMaxItems || cap(b.itemBuf) > bisectionMaxItems || cap(b.keys) > bisectionMaxItems {
		return
	}
	bisectionFree.Put(b)
}

// reset puts every item in cluster 0 and returns the largest item ID. It
// fails on a negative ID.
func (b *bisection) reset(items []Item) (int, error) {
	maxID, axes := 0, 1
	for _, it := range items {
		if it.ID < 0 {
			return 0, fmt.Errorf("mapping: negative item ID %d", it.ID)
		}
		maxID = max(maxID, it.ID)
		axes = max(axes, len(it.Coords))
	}
	b.items, b.axes = items, axes
	b.orders = slices.Grow(b.orders[:0], axes)[:axes]
	for a := range b.orders {
		b.orders[a] = b.orders[a][:0]
	}
	zeroInts(&b.cluster, len(items))
	b.size = append(b.size[:0], len(items))
	b.fields = b.fields[:0]
	b.packed = b.pack()
	return maxID, nil
}

// pack lays out the items' packed sort keys and reports whether the
// orders can use them. An item's key along an axis holds, from the most
// significant bits down: its component, its coordinate on the axis, its
// coordinates on the other axes in order, and its position, each less
// its least value over the items and in the fewest bits that hold the
// range. Sorted keys follow compare, with position in place of ID as the
// last tie-break, which agrees with it when IDs do not descend with
// position, as in every partitioning's items. So pack declines when some
// ID is below the one before it, or when the fields need more than 64
// bits.
func (b *bisection) pack() bool {
	items := b.items
	b.lo = slices.Grow(b.lo[:0], b.axes)[:b.axes]
	b.hi = slices.Grow(b.hi[:0], b.axes)[:b.axes]
	b.bits = slices.Grow(b.bits[:0], b.axes)[:b.axes]
	for a := range b.lo {
		b.lo[a] = coord(&items[0], a)
		b.hi[a] = b.lo[a]
	}
	compLo, compHi := items[0].Component, items[0].Component
	for i := range items {
		it := &items[i]
		if i > 0 && it.ID < items[i-1].ID {
			return false
		}
		compLo, compHi = min(compLo, it.Component), max(compHi, it.Component)
		for a := range b.lo {
			c := coord(it, a)
			b.lo[a], b.hi[a] = min(b.lo[a], c), max(b.hi[a], c)
		}
	}
	b.compLo = compLo
	b.compBits = bits.Len64(uint64(compHi) - uint64(compLo))
	b.posBits = bits.Len(uint(len(items) - 1))
	total := b.compBits + b.posBits
	for a := range b.bits {
		b.bits[a] = bits.Len64(uint64(b.hi[a]) - uint64(b.lo[a]))
		total += b.bits[a]
	}
	return total <= 64
}

// zeroInts resizes *buf to n zeroed entries, reusing its storage when it
// is large enough, and returns it.
func zeroInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// coord returns an item's coordinate along axis a. Items with no
// coordinates sort by ID, which follows the lexicographic order of the
// projected points; missing trailing coordinates are 0.
func coord(it *Item, a int) int64 {
	if len(it.Coords) == 0 {
		if a == 0 {
			return int64(it.ID)
		}
		return 0
	}
	if a < len(it.Coords) {
		return int64(it.Coords[a])
	}
	return 0
}

// compare is Phase I's order along axis: Component, the axis coordinate,
// the remaining axes in order, then ID.
func (b *bisection) compare(x, y *Item, axis int) int {
	if c := cmp.Compare(x.Component, y.Component); c != 0 {
		return c
	}
	if c := cmp.Compare(coord(x, axis), coord(y, axis)); c != 0 {
		return c
	}
	for o := 0; o < b.axes; o++ {
		if o == axis {
			continue
		}
		if c := cmp.Compare(coord(x, o), coord(y, o)); c != 0 {
			return c
		}
	}
	return cmp.Compare(x.ID, y.ID)
}

// order returns the item positions in axis order, sorting them on first
// use: as packed keys when pack allowed it, else with compare.
func (b *bisection) order(axis int) []int32 {
	if len(b.orders[axis]) > 0 {
		return b.orders[axis]
	}
	ord := b.orders[axis][:0]
	if b.packed {
		keys := b.keys[:0]
		for i := range b.items {
			it := &b.items[i]
			k := uint64(it.Component) - uint64(b.compLo)
			k = k<<b.bits[axis] | (uint64(coord(it, axis)) - uint64(b.lo[axis]))
			for o := range b.bits {
				if o != axis {
					k = k<<b.bits[o] | (uint64(coord(it, o)) - uint64(b.lo[o]))
				}
			}
			keys = append(keys, k<<b.posBits|uint64(i))
		}
		slices.Sort(keys)
		mask := uint64(1)<<b.posBits - 1
		for _, k := range keys {
			ord = append(ord, int32(k&mask))
		}
		b.keys = keys
	} else {
		for i := range b.items {
			ord = append(ord, int32(i))
		}
		slices.SortFunc(ord, func(i, j int32) int { return b.compare(&b.items[i], &b.items[j], axis) })
	}
	b.orders[axis] = ord
	return ord
}

// split halves every cluster along axis, recording field as the address
// field the halves differ in: the first ⌈n/2⌉ of a cluster's n items in
// axis order form its lower half.
func (b *bisection) split(axis, field int) {
	size := zeroInts(&b.spare, 2*len(b.size))
	room := zeroInts(&b.room, len(b.size))
	for c, n := range b.size {
		size[2*c], size[2*c+1] = (n+1)/2, n/2
		room[c] = (n + 1) / 2
	}
	for _, i := range b.order(axis) {
		c := b.cluster[i]
		if room[c] > 0 {
			room[c]--
			b.cluster[i] = 2 * c
		} else {
			b.cluster[i] = 2*c + 1
		}
	}
	b.size, b.spare = size, b.size
	b.fields = append(b.fields, field)
}

// widestAxis returns the axis with the widest coordinate span inside the
// first of the largest clusters (the WidestFirst policy).
func (b *bisection) widestAxis() int {
	biggest := 0
	for c, n := range b.size {
		if n > b.size[biggest] {
			biggest = c
		}
	}
	bestAxis, bestSpan := 0, int64(-1)
	for a := 0; a < b.axes; a++ {
		var mn, mx int64
		first := true
		for i := range b.items {
			if b.cluster[i] != biggest {
				continue
			}
			c := coord(&b.items[i], a)
			if first || c < mn {
				mn = c
			}
			if first || c > mx {
				mx = c
			}
			first = false
		}
		if span := mx - mn; span > bestSpan {
			bestAxis, bestSpan = a, span
		}
	}
	return bestAxis
}

// fieldIndices fills idx[f] with cluster c's slice index along address
// field f: the halves it took at f's splits, read as binary digits.
func (b *bisection) fieldIndices(c int, idx []int) {
	clear(idx)
	last := len(b.fields) - 1
	for s, f := range b.fields {
		idx[f] = idx[f]*2 + c>>(last-s)&1
	}
}

// place puts every cluster's items on node(c), visiting clusters in
// number order. It returns the node of each item ID (-1 for an ID no item
// has; an ID held by items in several clusters takes the last cluster's
// node) and each node's IDs, sorted, in tables from t. Distinct clusters
// must map to distinct nodes.
func (b *bisection) place(maxID, nodes int, t *Tables, node func(c int) int) (nodeOf []int, clusters [][]int) {
	nodeOf = t.ints(maxID + 1)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	// Bucket the IDs by cluster; each node's list is a window onto ids.
	start := zeroInts(&b.start, len(b.size)+1)
	for c, n := range b.size {
		start[c+1] = start[c] + n
	}
	next := zeroInts(&b.next, len(b.size))
	copy(next, start)
	ids := t.ints(len(b.items))
	for i, c := range b.cluster {
		ids[next[c]] = b.items[i].ID
		next[c]++
	}
	clusters = t.clusterTable(nodes)
	for c := range b.size {
		if start[c] == start[c+1] {
			continue
		}
		n, cl := node(c), ids[start[c]:start[c+1]:start[c+1]]
		slices.Sort(cl)
		clusters[n] = cl
		for _, id := range cl {
			nodeOf[id] = n
		}
	}
	return nodeOf, clusters
}

// ItemsOf converts a partitioning's groups into mappable items. The
// items share the partitioning's coordinate table.
func ItemsOf(p *core.Partitioning) []Item {
	return appendItems(make([]Item, 0, p.NumBlocks()), p)
}

// appendItems appends a partitioning's groups to dst as mappable items.
func appendItems(dst []Item, p *core.Partitioning) []Item {
	for g := range p.NumBlocks() {
		dst = append(dst, Item{ID: g, Component: p.Component(g), Coords: p.Coords(g)})
	}
	return dst
}

// MapPartitioning runs Algorithm 2 on a partitioning for a dim-cube. Its
// items live in the bisection's buffer.
func MapPartitioning(p *core.Partitioning, dim int, opt Options) (*Result, error) {
	return MapPartitioningInto(p, dim, opt, nil)
}

// MapPartitioningInto is MapPartitioning building the result into t's
// recycled memory (see Tables); a nil t builds a kept result, as
// MapPartitioning does.
func MapPartitioningInto(p *core.Partitioning, dim int, opt Options, t *Tables) (*Result, error) {
	b := getBisection()
	defer putBisection(b)
	b.itemBuf = appendItems(b.itemBuf[:0], p)
	return b.mapCube(b.itemBuf, dim, opt, t)
}

// Linear assigns blocks to nodes in contiguous ID chunks with plain binary
// node numbering — the no-Gray, no-locality baseline.
func Linear(numBlocks, dim int) (*Result, error) {
	if numBlocks <= 0 {
		return nil, errors.New("mapping: no blocks")
	}
	res := &Result{Cube: hypercube.New(dim), NodeOf: make([]int, numBlocks)}
	res.Clusters = make([][]int, res.Cube.N)
	per := (numBlocks + res.Cube.N - 1) / res.Cube.N
	for b := 0; b < numBlocks; b++ {
		node := b / per
		res.NodeOf[b] = node
		res.Clusters[node] = append(res.Clusters[node], b)
	}
	return res, nil
}

// Greedy places blocks one at a time, heaviest first, each on the node
// minimizing a combined cost of added communication (hop-weight to
// already-placed TIG neighbours) and load imbalance — a classic
// list-placement heuristic in the spirit of the paper's task-allocation
// citations, as a comparator for Algorithm 2's structured bisection.
// commWeight scales the communication term relative to load (0 degenerates
// to pure load balancing).
func Greedy(t *core.TIG, dim int, commWeight float64) (*Result, error) {
	if t.N == 0 {
		return nil, errors.New("mapping: empty TIG")
	}
	res := &Result{Cube: hypercube.New(dim), NodeOf: make([]int, t.N)}
	res.Clusters = make([][]int, res.Cube.N)
	for b := range res.NodeOf {
		res.NodeOf[b] = -1
	}
	order := make([]int, t.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.Loads[order[a]] > t.Loads[order[b]] })

	// Capacity bound keeps the placement balanced: without it the comm
	// term would pile every block onto one node (zero hops, no
	// parallelism). A node is eligible while its load stays within the
	// perfectly balanced share, rounded up; the heaviest single block is
	// always placeable.
	var total, maxBlock int64
	for _, l := range t.Loads {
		total += l
		if l > maxBlock {
			maxBlock = l
		}
	}
	capLoad := (total + int64(res.Cube.N) - 1) / int64(res.Cube.N)
	if capLoad < maxBlock {
		capLoad = maxBlock
	}

	loads := make([]int64, res.Cube.N)
	// Undirected communication weights per block pair.
	comm := func(a, b int) int64 { return t.Weight(a, b) + t.Weight(b, a) }
	for _, blk := range order {
		bestNode := -1
		bestCost := 0.0
		for node := 0; node < res.Cube.N; node++ {
			if loads[node]+t.Loads[blk] > capLoad && bestNode >= 0 {
				continue
			}
			cost := float64(loads[node] + t.Loads[blk])
			for other := 0; other < t.N; other++ {
				if res.NodeOf[other] < 0 {
					continue
				}
				if w := comm(blk, other); w > 0 {
					cost += commWeight * float64(w) * float64(res.Cube.Distance(node, res.NodeOf[other]))
				}
			}
			overCap := loads[node]+t.Loads[blk] > capLoad
			bestOver := bestNode >= 0 && loads[bestNode]+t.Loads[blk] > capLoad
			better := bestNode < 0 || (bestOver && !overCap) || (overCap == bestOver && cost < bestCost)
			if better {
				bestNode, bestCost = node, cost
			}
		}
		res.NodeOf[blk] = bestNode
		loads[bestNode] += t.Loads[blk]
		res.Clusters[bestNode] = append(res.Clusters[bestNode], blk)
	}
	for node := range res.Clusters {
		sort.Ints(res.Clusters[node])
	}
	return res, nil
}

// Random assigns blocks to nodes uniformly at random (load-balanced by
// round-robin over a shuffled block order) — the locality-free baseline.
func Random(numBlocks, dim int, seed int64) (*Result, error) {
	if numBlocks <= 0 {
		return nil, errors.New("mapping: no blocks")
	}
	res := &Result{Cube: hypercube.New(dim), NodeOf: make([]int, numBlocks)}
	res.Clusters = make([][]int, res.Cube.N)
	perm := rand.New(rand.NewSource(seed)).Perm(numBlocks)
	for i, b := range perm {
		node := i % res.Cube.N
		res.NodeOf[b] = node
		res.Clusters[node] = append(res.Clusters[node], b)
	}
	for node := range res.Clusters {
		sort.Ints(res.Clusters[node])
	}
	return res, nil
}

// Stats quantifies mapping quality against a TIG.
type Stats struct {
	// HopWeight is Σ over TIG edges of weight × hop distance — the total
	// link traffic the mapping induces.
	HopWeight int64
	// RemoteWeight is Σ of weights whose endpoints sit on different nodes
	// (traffic that actually crosses the network).
	RemoteWeight int64
	// MaxDilation is the largest hop distance of any TIG edge with
	// endpoints on different nodes (0 when everything is local).
	MaxDilation int
	// MaxLoad and MinLoad are the extreme per-node computation loads.
	MaxLoad, MinLoad int64
}

// Evaluate computes mapping statistics for a hypercube mapping.
func Evaluate(t *core.TIG, r *Result) Stats {
	return EvaluateGeneral(t, r.NodeOf, r.Cube.N, r.Cube.Distance)
}
