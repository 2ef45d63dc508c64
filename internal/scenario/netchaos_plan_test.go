// The chaos plan: a pure-data, seeded, validated description of which
// network failure each partition/heal cycle injects. Generation is
// splitmix64-driven (internal/fault's RNG), so a seed fully determines
// the schedule and a failing run replays from its logged plan JSON.

package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
)

// ErrInvalid tags every plan-validation failure (errors.Is-matchable).
var ErrInvalid = errors.New("netchaos: invalid plan")

// EventKind names one cycle's failure mode.
type EventKind string

const (
	// KindPartition is a symmetric split: Groups lose all connectivity
	// to each other, both directions.
	KindPartition EventKind = "partition"
	// KindIsolate fully partitions one shard (Groups[0] is the victim).
	KindIsolate EventKind = "isolate"
	// KindAsymmetric cuts only the listed directed Edges — i can reach
	// j while j cannot reach i.
	KindAsymmetric EventKind = "asymmetric"
	// KindBlackhole starves the listed Edges: connections open, bytes
	// vanish, dialers hang until their deadlines.
	KindBlackhole EventKind = "blackhole"
	// KindLatency delays every chunk on the listed Edges by Latency.
	KindLatency EventKind = "latency"
	// KindReset kills the listed Edges' established connections once,
	// then leaves them healthy.
	KindReset EventKind = "reset"
)

// Event is one cycle's injected failure. Exactly one of Groups/Edges is
// meaningful, per Kind.
type Event struct {
	Kind    EventKind     `json:"kind"`
	Groups  [][]int       `json:"groups,omitempty"`
	Edges   []Edge        `json:"edges,omitempty"`
	Latency time.Duration `json:"latency_ns,omitempty"`
}

// Plan is a replayable chaos schedule: the harness applies Cycles[k],
// drives load, heals, and verifies convergence, for each k in order.
type Plan struct {
	Seed   uint64  `json:"seed"`
	Shards int     `json:"shards"`
	Cycles []Event `json:"cycles"`
}

// String renders the plan as JSON — log it once and any run replays.
func (p Plan) String() string {
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("netchaos.Plan{seed=%d, unmarshalable: %v}", p.Seed, err)
	}
	return string(b)
}

// Validate checks structural invariants: every group is disjoint and in
// range, every edge is a real directed edge, latency events carry a
// positive latency, kinds are known.
func (p Plan) Validate() error {
	if p.Shards < 2 {
		return fmt.Errorf("%w: needs at least 2 shards, got %d", ErrInvalid, p.Shards)
	}
	for ci, ev := range p.Cycles {
		switch ev.Kind {
		case KindPartition, KindIsolate:
			if len(ev.Groups) < 1 {
				return fmt.Errorf("%w: cycle %d (%s) has no groups", ErrInvalid, ci, ev.Kind)
			}
			seen := make(map[int]bool)
			for _, g := range ev.Groups {
				if len(g) == 0 {
					return fmt.Errorf("%w: cycle %d has an empty group", ErrInvalid, ci)
				}
				for _, id := range g {
					if id < 0 || id >= p.Shards {
						return fmt.Errorf("%w: cycle %d: shard %d out of range", ErrInvalid, ci, id)
					}
					if seen[id] {
						return fmt.Errorf("%w: cycle %d: shard %d in two groups", ErrInvalid, ci, id)
					}
					seen[id] = true
				}
			}
			if ev.Kind == KindPartition && len(ev.Groups) < 2 {
				return fmt.Errorf("%w: cycle %d: a partition needs ≥2 groups", ErrInvalid, ci)
			}
		case KindAsymmetric, KindBlackhole, KindReset, KindLatency:
			if len(ev.Edges) == 0 {
				return fmt.Errorf("%w: cycle %d (%s) has no edges", ErrInvalid, ci, ev.Kind)
			}
			for _, e := range ev.Edges {
				if e.From < 0 || e.From >= p.Shards || e.To < 0 || e.To >= p.Shards || e.From == e.To {
					return fmt.Errorf("%w: cycle %d: edge %s out of range", ErrInvalid, ci, e)
				}
			}
			if ev.Kind == KindLatency && ev.Latency <= 0 {
				return fmt.Errorf("%w: cycle %d: latency event needs a positive latency", ErrInvalid, ci)
			}
		default:
			return fmt.Errorf("%w: cycle %d has unknown kind %q", ErrInvalid, ci, ev.Kind)
		}
	}
	return nil
}

// Apply injects one event into the fabric (the harness heals between
// cycles with Fabric.Heal).
func (f *Fabric) Apply(ev Event) error {
	switch ev.Kind {
	case KindPartition:
		return f.Partition(ev.Groups)
	case KindIsolate:
		victims := ev.Groups[0]
		rest := make([]int, 0, f.n)
		inVictims := make(map[int]bool, len(victims))
		for _, v := range victims {
			inVictims[v] = true
		}
		for i := 0; i < f.n; i++ {
			if !inVictims[i] {
				rest = append(rest, i)
			}
		}
		return f.Partition([][]int{victims, rest})
	case KindAsymmetric:
		for _, e := range ev.Edges {
			if err := f.Cut(e); err != nil {
				return err
			}
		}
	case KindBlackhole:
		for _, e := range ev.Edges {
			if err := f.Blackhole(e); err != nil {
				return err
			}
		}
	case KindLatency:
		for _, e := range ev.Edges {
			if err := f.SetLatency(e, ev.Latency); err != nil {
				return err
			}
		}
	case KindReset:
		for _, e := range ev.Edges {
			if err := f.Reset(e); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalid, ev.Kind)
	}
	return nil
}

// GeneratePlan derives a cycles-long schedule from a seed: each cycle
// draws one failure mode and its victims from the splitmix64 stream, so
// equal (seed, shards, cycles) always yields the identical plan. The
// generated plan always validates.
func GeneratePlan(seed uint64, shards, cycles int) Plan {
	rng := fault.NewRNG(seed)
	p := Plan{Seed: seed, Shards: shards}
	for c := 0; c < cycles; c++ {
		switch rng.Next() % 5 {
		case 0: // symmetric bisection: a random nonempty proper subset vs the rest
			var a, b []int
			for i := 0; i < shards; i++ {
				if rng.Next()%2 == 0 {
					a = append(a, i)
				} else {
					b = append(b, i)
				}
			}
			if len(a) == 0 || len(b) == 0 { // degenerate draw: isolate shard 0
				a = []int{0}
				b = b[:0]
				for i := 1; i < shards; i++ {
					b = append(b, i)
				}
			}
			p.Cycles = append(p.Cycles, Event{Kind: KindPartition, Groups: [][]int{a, b}})
		case 1: // isolate one shard
			v := int(rng.Next() % uint64(shards))
			p.Cycles = append(p.Cycles, Event{Kind: KindIsolate, Groups: [][]int{{v}}})
		case 2: // asymmetric: one-way cut of every edge out of a victim
			v := int(rng.Next() % uint64(shards))
			var edges []Edge
			for j := 0; j < shards; j++ {
				if j != v {
					edges = append(edges, Edge{From: v, To: j})
				}
			}
			p.Cycles = append(p.Cycles, Event{Kind: KindAsymmetric, Edges: edges})
		case 3: // blackhole every edge into a victim
			v := int(rng.Next() % uint64(shards))
			var edges []Edge
			for i := 0; i < shards; i++ {
				if i != v {
					edges = append(edges, Edge{From: i, To: v})
				}
			}
			p.Cycles = append(p.Cycles, Event{Kind: KindBlackhole, Edges: edges})
		default: // latency spike on a random directed edge pair + its reverse
			i := int(rng.Next() % uint64(shards))
			j := int(rng.Next() % uint64(shards))
			if j == i {
				j = (i + 1) % shards
			}
			lat := time.Duration(20+rng.Next()%80) * time.Millisecond
			p.Cycles = append(p.Cycles, Event{
				Kind:    KindLatency,
				Edges:   []Edge{{From: i, To: j}, {From: j, To: i}},
				Latency: lat,
			})
		}
	}
	return p
}
