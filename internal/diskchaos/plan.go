// Package diskchaos is the storage-fault twin of the netchaos fabric in
// internal/scenario's tests: a deterministic, seeded fault-injecting
// implementation of the persist.FS seam. A Plan is pure data — which
// operation fails, on which file, on which call, with which failure
// mode — so a seed fully determines the fault schedule and a failing run
// replays from its logged plan JSON.
//
// Supported failure modes cover the disk-fault matrix the store must
// survive: EIO on any operation, ENOSPC on writes, short (torn) writes
// that leave real partial frames on disk, sync failures (the one a
// filesystem must never retry-and-trust), rename failures mid-compaction,
// and read-side bitrot that flips one seeded bit per read.
package diskchaos

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/fault"
)

// ErrInvalid tags every plan-validation failure (errors.Is-matchable).
var ErrInvalid = errors.New("diskchaos: invalid plan")

// ErrInjected tags every injected fault, so tests can tell scripted
// failures from real ones.
var ErrInjected = errors.New("diskchaos: injected fault")

// Op names one FS operation class a rule can target.
type Op string

const (
	OpOpen    Op = "open"
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpSyncDir Op = "syncdir"
)

// Kind names the failure mode a firing rule injects.
type Kind string

const (
	// KindEIO fails the operation with an I/O error. Valid for every op.
	KindEIO Kind = "eio"
	// KindENOSPC fails a write with "no space left on device".
	KindENOSPC Kind = "enospc"
	// KindShort writes half the buffer for real — a torn frame lands on
	// disk — then fails. Write ops only.
	KindShort Kind = "short"
	// KindBitrot flips one seeded bit in the data a read returns,
	// leaving the file itself untouched. Read ops only.
	KindBitrot Kind = "bitrot"
)

// Rule scripts one fault: the After'th call (1-based; 0 means first) of
// Op whose file base name contains Path (empty matches any) fails with
// Kind, as do the next Count-1 matching calls (Count 0 means one call,
// -1 means every call from After on).
type Rule struct {
	Op    Op     `json:"op"`
	Path  string `json:"path,omitempty"`
	Kind  Kind   `json:"kind"`
	After int    `json:"after,omitempty"`
	Count int    `json:"count,omitempty"`
}

// Plan is a replayable disk-fault schedule.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// String renders the plan as JSON — log it once and any run replays.
func (p Plan) String() string {
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("diskchaos.Plan{seed=%d, unmarshalable: %v}", p.Seed, err)
	}
	return string(b)
}

// Validate checks structural invariants: known ops and kinds, mode/op
// compatibility, sane trigger windows.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		switch r.Op {
		case OpOpen, OpRead, OpWrite, OpSync, OpRename, OpRemove, OpSyncDir:
		default:
			return fmt.Errorf("%w: rule %d has unknown op %q", ErrInvalid, i, r.Op)
		}
		switch r.Kind {
		case KindEIO:
		case KindENOSPC:
			if r.Op != OpWrite {
				return fmt.Errorf("%w: rule %d: enospc applies to writes, not %q", ErrInvalid, i, r.Op)
			}
		case KindShort:
			if r.Op != OpWrite {
				return fmt.Errorf("%w: rule %d: short applies to writes, not %q", ErrInvalid, i, r.Op)
			}
		case KindBitrot:
			if r.Op != OpRead {
				return fmt.Errorf("%w: rule %d: bitrot applies to reads, not %q", ErrInvalid, i, r.Op)
			}
		default:
			return fmt.Errorf("%w: rule %d has unknown kind %q", ErrInvalid, i, r.Kind)
		}
		if r.After < 0 {
			return fmt.Errorf("%w: rule %d has negative after %d", ErrInvalid, i, r.After)
		}
		if r.Count < -1 {
			return fmt.Errorf("%w: rule %d has count %d < -1", ErrInvalid, i, r.Count)
		}
	}
	return nil
}

// walPath matches every WAL file of the tiered store (wal-%08d.log).
const walPath = "wal-"

// GeneratePlan derives a write-path fault plan from a seed: one failure
// mode drawn from the splitmix64 stream, aimed at a WAL append a few
// records in, so equal seeds always yield the identical schedule. The
// generated plan always validates.
func GeneratePlan(seed uint64) Plan {
	rng := fault.NewRNG(seed)
	after := int(2 + rng.Next()%6) // strike within the first handful of appends
	var r Rule
	switch rng.Next() % 4 {
	case 0: // fsync failure on the WAL: the canonical never-trust-retry case
		r = Rule{Op: OpSync, Path: walPath, Kind: KindEIO, After: after, Count: -1}
	case 1: // disk full mid-append
		r = Rule{Op: OpWrite, Path: walPath, Kind: KindENOSPC, After: after, Count: -1}
	case 2: // torn append: half the frame lands, then the write dies
		r = Rule{Op: OpWrite, Path: walPath, Kind: KindShort, After: after, Count: -1}
	default: // plain EIO on the append
		r = Rule{Op: OpWrite, Path: walPath, Kind: KindEIO, After: after, Count: -1}
	}
	return Plan{Seed: seed, Rules: []Rule{r}}
}
