// The fault-injecting filesystem: a persist.FS that wraps a real one and
// fails scripted calls. With no armed rules it is a strict pass-through —
// byte-identical behavior to the inner FS — which TestScenario/diskchaos
// asserts directly (a fault-free plan must be a no-op).
package diskchaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/fault"
	"repro/internal/persist"
)

// FS is a deterministic fault-injecting persist.FS. Safe for concurrent
// use; rule matching and the bitrot RNG are serialized under one mutex so
// a given call sequence always faults identically.
type FS struct {
	inner persist.FS

	mu       sync.Mutex
	rng      *fault.RNG
	rules    []ruleState
	injected map[Kind]int64
}

// ruleState is one armed rule plus its matching-call counter.
type ruleState struct {
	Rule
	seen int
}

// New builds a fault FS over the real filesystem from a validated plan.
func New(plan Plan) (*FS, error) {
	return NewOver(persist.OS(), plan)
}

// NewOver builds a fault FS over an arbitrary inner FS.
func NewOver(inner persist.FS, plan Plan) (*FS, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	f := &FS{
		inner:    inner,
		rng:      fault.NewRNG(plan.Seed),
		injected: make(map[Kind]int64),
	}
	f.armLocked(plan.Rules)
	return f, nil
}

// Arm replaces the armed rule set mid-run (counters reset), so a harness
// can boot a store fault-free and script the failure later. Injected
// counters are preserved across re-arms.
func (f *FS) Arm(rules []Rule) error {
	if err := (Plan{Rules: rules}).Validate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armLocked(rules)
	return nil
}

func (f *FS) armLocked(rules []Rule) {
	f.rules = make([]ruleState, len(rules))
	for i, r := range rules {
		f.rules[i] = ruleState{Rule: r}
	}
}

// Injected returns how many faults have fired, by kind.
func (f *FS) Injected() map[Kind]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Kind]int64, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// TotalInjected returns the total faults fired across all kinds.
func (f *FS) TotalInjected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, v := range f.injected {
		n += v
	}
	return n
}

// decide runs one op through the armed rules: every matching rule's
// counter advances, and the first rule whose firing window covers this
// call injects its kind.
func (f *FS) decide(op Op, name string) (Kind, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := filepath.Base(name)
	var hit Kind
	fired := false
	for i := range f.rules {
		r := &f.rules[i]
		if r.Op != op || !strings.Contains(base, r.Path) {
			continue
		}
		r.seen++
		first := r.After
		if first < 1 {
			first = 1
		}
		count := r.Count
		if count == 0 {
			count = 1
		}
		inWindow := r.seen >= first && (count < 0 || r.seen < first+count)
		if inWindow && !fired {
			hit, fired = r.Kind, true
			f.injected[r.Kind]++
		}
	}
	return hit, fired
}

// errFor renders a fired kind as the matching errno, tagged ErrInjected.
func errFor(kind Kind, op Op, name string) error {
	errno := syscall.EIO
	if kind == KindENOSPC {
		errno = syscall.ENOSPC
	}
	return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, filepath.Base(name), errno)
}

// --- persist.FS ---

func (f *FS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if kind, ok := f.decide(OpOpen, name); ok {
		return nil, errFor(kind, OpOpen, name)
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, name: name}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	kind, ok := f.decide(OpRead, name)
	if ok && kind != KindBitrot {
		return nil, errFor(kind, OpRead, name)
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if ok && kind == KindBitrot && len(data) > 0 {
		f.mu.Lock()
		bit := f.rng.Next() % uint64(len(data)*8)
		f.mu.Unlock()
		data[bit/8] ^= 1 << (bit % 8)
	}
	return data, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if kind, ok := f.decide(OpRename, oldpath); ok {
		return errFor(kind, OpRename, oldpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if kind, ok := f.decide(OpRemove, name); ok {
		return errFor(kind, OpRemove, name)
	}
	return f.inner.Remove(name)
}

func (f *FS) SyncDir(dir string) error {
	if kind, ok := f.decide(OpSyncDir, dir); ok {
		return errFor(kind, OpSyncDir, dir)
	}
	return f.inner.SyncDir(dir)
}

// faultFile wraps one open file with the write/sync fault points.
type faultFile struct {
	f    persist.File
	fs   *FS
	name string
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	kind, ok := ff.fs.decide(OpRead, ff.name)
	if ok && kind != KindBitrot {
		return 0, errFor(kind, OpRead, ff.name)
	}
	n, err := ff.f.ReadAt(p, off)
	if ok && kind == KindBitrot && n > 0 {
		// Read-side bitrot scoped to this one read, exactly like the
		// ReadFile path: the bytes on disk stay intact, the caller's CRC
		// check is what must catch it.
		ff.fs.mu.Lock()
		bit := ff.fs.rng.Next() % uint64(n*8)
		ff.fs.mu.Unlock()
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	kind, ok := ff.fs.decide(OpWrite, ff.name)
	if !ok {
		return ff.f.Write(p)
	}
	if kind == KindShort && len(p) > 1 {
		// A real torn write: half the buffer lands on disk, then the
		// device gives out. The file now holds a partial frame, exactly
		// what a power cut mid-write leaves.
		n, err := ff.f.Write(p[: len(p)/2 : len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: short write (%d of %d bytes to %s): %v",
			ErrInjected, n, len(p), filepath.Base(ff.name), syscall.EIO)
	}
	return 0, errFor(kind, OpWrite, ff.name)
}

func (ff *faultFile) Sync() error {
	if kind, ok := ff.fs.decide(OpSync, ff.name); ok {
		return errFor(kind, OpSync, ff.name)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) { return ff.f.Seek(offset, whence) }
func (ff *faultFile) Truncate(size int64) error                    { return ff.f.Truncate(size) }
func (ff *faultFile) Close() error                                 { return ff.f.Close() }
