// The epoch-versioned cluster map: the single authoritative description
// of membership that every shard gossips, adopts, and hashes over.
//
// A Map is a monotonically-versioned shard roster. Any member that changes
// the roster (join, leave, probe-detected death or revival) bumps the
// epoch past the highest it has seen and stamps itself as the origin;
// version order is (epoch, then lower origin breaks ties), so concurrent
// edits converge deterministically as maps spread through the probe loop
// and response metadata. Departed shards stay in the map as tombstones —
// their IDs (hypercube addresses) are never reused, which keeps ownership
// and routing stable for everyone who has not yet heard of a departure.
//
// Replica placement dogfoods the paper's Gray-code adjacency argument:
// the standby for a key is its owner's successor on the Gray-code ring
// over the active shard set — by construction one cube hop away, the
// cheapest possible neighbor. ServingOwner is the shared routing rule
// (servers and clients alike): the HRW primary while it is alive,
// otherwise the first alive shard walking the Gray ring from the primary
// — exactly where the replicas were pushed.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ints"
)

// Shard lifecycle states carried in the cluster map.
const (
	// StateJoining: admitted by /v1/admin/join, streaming its keyspace;
	// probed but never an owner.
	StateJoining = "joining"
	// StateUp: a full member — owns its HRW keyspace.
	StateUp = "up"
	// StateLeft: a tombstone. The ID is retired, never reused.
	StateLeft = "left"
)

// MapShard is one roster entry of the cluster map.
type MapShard struct {
	ID    int    `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
	// Down is the origin's probe verdict when it published the map — a
	// liveness hint for newcomers. Local probing remains authoritative.
	Down bool `json:"down,omitempty"`
}

// Map is the epoch-versioned cluster roster. Shards are sorted by ID.
type Map struct {
	Epoch  uint64     `json:"epoch"`
	Origin int        `json:"origin"`
	Shards []MapShard `json:"shards"`
}

// Newer reports whether m supersedes other: higher epoch wins; equal
// epochs break to the lower origin so concurrent bumps converge.
func (m Map) Newer(other Map) bool {
	if m.Epoch != other.Epoch {
		return m.Epoch > other.Epoch
	}
	return m.Origin < other.Origin
}

// Clone returns a deep copy (the shard slice is not shared).
func (m Map) Clone() Map {
	out := m
	out.Shards = append([]MapShard(nil), m.Shards...)
	return out
}

// Find returns the index of shard id in m.Shards, or -1.
func (m Map) Find(id int) int {
	for i := range m.Shards {
		if m.Shards[i].ID == id {
			return i
		}
	}
	return -1
}

// FindURL returns the index of the shard with the given base URL, or -1.
func (m Map) FindURL(url string) int {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	for i := range m.Shards {
		if m.Shards[i].URL == url {
			return i
		}
	}
	return -1
}

// Active returns the sorted IDs of every StateUp shard — the HRW
// candidate set. Joining shards and tombstones own nothing.
func (m Map) Active() []int {
	out := make([]int, 0, len(m.Shards))
	for _, s := range m.Shards {
		if s.State == StateUp {
			out = append(out, s.ID)
		}
	}
	sort.Ints(out)
	return out
}

// StaticMap builds the epoch-1 map of a fixed -peers roster: shard i at
// urls[i], everyone up. Every member of a static cluster constructs the
// identical map, so gossip is a no-op until the first membership event.
func StaticMap(urls []string) Map {
	shards := make([]MapShard, len(urls))
	for i, u := range urls {
		shards[i] = MapShard{ID: i, URL: strings.TrimRight(strings.TrimSpace(u), "/"), State: StateUp}
	}
	return Map{Epoch: 1, Shards: shards}
}

// Validate checks structural invariants: at least one shard, unique
// non-negative IDs in ascending order, non-empty URLs, known states.
func (m Map) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: empty map")
	}
	prev := -1
	for _, s := range m.Shards {
		if s.ID <= prev {
			return fmt.Errorf("cluster: map shard IDs not strictly ascending at %d", s.ID)
		}
		prev = s.ID
		if strings.TrimSpace(s.URL) == "" {
			return fmt.Errorf("cluster: map shard %d has an empty URL", s.ID)
		}
		switch s.State {
		case StateJoining, StateUp, StateLeft:
		default:
			return fmt.Errorf("cluster: map shard %d has unknown state %q", s.ID, s.State)
		}
	}
	return nil
}

// GraySucc returns the cyclic successor of id on the Gray-code ring over
// members: members sorted by the Gray rank of their hypercube address,
// so consecutive ring positions differ in one address bit whenever the
// cube is fully populated — the paper's adjacent-block placement. id need
// not itself be a member (its virtual ring position is used). Returns -1
// when members is empty, and id's sole companion when only one other
// member exists.
func GraySucc(id int, members []int) int {
	if len(members) == 0 {
		return -1
	}
	type ranked struct{ id, rank int }
	ring := make([]ranked, 0, len(members))
	for _, m := range members {
		ring = append(ring, ranked{m, int(ints.GrayInv(uint64(m)))})
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].rank < ring[j].rank })
	selfRank := int(ints.GrayInv(uint64(id)))
	for _, r := range ring {
		if r.rank > selfRank {
			return r.id
		}
	}
	return ring[0].id
}

// ReplicaFor returns the standby shard of key: the Gray-ring successor
// of its HRW primary over the active set. Returns -1 when fewer than two
// active shards exist (nowhere to replicate).
func ReplicaFor(key string, active []int) int {
	if len(active) < 2 {
		return -1
	}
	return GraySucc(Owner(key, active), active)
}

// ServingOwner is the shared degraded-routing rule: the HRW primary of
// key over the active (state-up) set while that primary is alive,
// otherwise the first alive active shard walking the Gray ring from the
// primary — the replica chain, so hinted handoff lands exactly where the
// replicas were pushed. With no alive active shard it returns the
// primary unchanged (the caller serves locally as a last resort).
// Returns -1 only when active is empty.
func ServingOwner(key string, active []int, alive func(int) bool) int {
	if len(active) == 0 {
		return -1
	}
	primary := Owner(key, active)
	if alive == nil || alive(primary) {
		return primary
	}
	cur := primary
	for i := 1; i < len(active); i++ {
		cur = GraySucc(cur, active)
		if cur == primary {
			break
		}
		if alive(cur) {
			return cur
		}
	}
	return primary
}
