package diskchaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/persist"
	"repro/internal/tiered"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Op: "chmod", Kind: KindEIO}}},
		{Rules: []Rule{{Op: OpWrite, Kind: "gamma-ray"}}},
		{Rules: []Rule{{Op: OpSync, Kind: KindENOSPC}}},  // enospc is write-only
		{Rules: []Rule{{Op: OpRead, Kind: KindShort}}},   // short is write-only
		{Rules: []Rule{{Op: OpWrite, Kind: KindBitrot}}}, // bitrot is read-only
		{Rules: []Rule{{Op: OpWrite, Kind: KindEIO, After: -1}}},
		{Rules: []Rule{{Op: OpWrite, Kind: KindEIO, Count: -2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("plan %d: Validate() = %v, want ErrInvalid", i, err)
		}
	}
	good := Plan{Seed: 7, Rules: []Rule{
		{Op: OpSync, Path: "wal", Kind: KindEIO, After: 3, Count: -1},
		{Op: OpRead, Kind: KindBitrot},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestGeneratePlanDeterministicAndValid(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := GeneratePlan(seed), GeneratePlan(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: plans differ: %s vs %s", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
		if len(a.Rules) != 1 || a.Rules[0].Path != walPath {
			t.Fatalf("seed %d: unexpected shape %s", seed, a)
		}
	}
}

// The After/Count window: calls before After pass, the next Count calls
// fail, later calls pass again.
func TestRuleWindow(t *testing.T) {
	dir := t.TempDir()
	ffs, err := New(Plan{Rules: []Rule{
		{Op: OpSync, Path: "f.dat", Kind: KindEIO, After: 2, Count: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ffs.OpenFile(filepath.Join(dir, "f.dat"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, f.Sync() != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sync outcomes %v, want %v", got, want)
		}
	}
	if ffs.Injected()[KindEIO] != 2 || ffs.TotalInjected() != 2 {
		t.Fatalf("injected counters %v", ffs.Injected())
	}
}

// Injected errors carry both the ErrInjected tag and the right errno.
func TestErrnoTagging(t *testing.T) {
	dir := t.TempDir()
	ffs, err := New(Plan{Rules: []Rule{
		{Op: OpWrite, Kind: KindENOSPC, Count: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ffs.OpenFile(filepath.Join(dir, "f.dat"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, werr := f.Write([]byte("x"))
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("write error %v not tagged ErrInjected", werr)
	}
	if !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("write error %v does not carry ENOSPC", werr)
	}
}

// A short write must leave exactly half the buffer on disk — a real torn
// frame, not a clean failure.
func TestShortWriteTearsForReal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.dat")
	ffs, err := New(Plan{Rules: []Rule{
		{Op: OpWrite, Path: "f.dat", Kind: KindShort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ffs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("0123456789")
	n, werr := f.Write(buf)
	if werr == nil || !errors.Is(werr, ErrInjected) {
		t.Fatalf("short write error = %v", werr)
	}
	if n != len(buf)/2 {
		t.Fatalf("short write reported %d bytes, want %d", n, len(buf)/2)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Fatalf("on-disk bytes %q, want the first half", data)
	}
}

// Bitrot is deterministic per seed, flips exactly one bit in the read
// copy, and never touches the file.
func TestBitrotDeterministicAndNonMutating(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.dat")
	orig := []byte("the quick brown fox jumps over the lazy dog")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	read := func(seed uint64) []byte {
		ffs, err := New(Plan{Seed: seed, Rules: []Rule{{Op: OpRead, Kind: KindBitrot}}})
		if err != nil {
			t.Fatal(err)
		}
		data, err := ffs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := read(42), read(42)
	if string(a) != string(b) {
		t.Fatal("same seed produced different bitrot")
	}
	diffBits := 0
	for i := range a {
		for bit := 0; bit < 8; bit++ {
			if (a[i]^orig[i])&(1<<bit) != 0 {
				diffBits++
			}
		}
	}
	if diffBits != 1 {
		t.Fatalf("bitrot flipped %d bits, want exactly 1", diffBits)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(orig) {
		t.Fatal("bitrot mutated the file on disk")
	}
}

// Arm swaps the rule set mid-run and resets matching counters while
// preserving the injected totals.
func TestArmMidRun(t *testing.T) {
	dir := t.TempDir()
	ffs, err := New(Plan{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ffs.OpenFile(filepath.Join(dir, "f.dat"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("fault-free sync failed: %v", err)
	}
	if err := ffs.Arm([]Rule{{Op: OpSync, Kind: KindEIO, Count: -1}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed sync fault did not fire: %v", err)
	}
	if err := ffs.Arm(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("disarmed sync still failing: %v", err)
	}
	if ffs.TotalInjected() != 1 {
		t.Fatalf("injected total %d survived re-arms, want 1", ffs.TotalInjected())
	}
}

// The FS seam composes: a store opened over a pass-through FS behaves
// exactly like one on the real filesystem.
func TestPassThroughSatisfiesPersistFS(t *testing.T) {
	var _ persist.FS = (*FS)(nil)
	ffs, err := New(Plan{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if ffs.TotalInjected() != 0 {
		t.Fatalf("empty plan injected %d faults", ffs.TotalInjected())
	}
	reopened, tail, err := tiered.Open(tiered.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(tail) != 1 || tail[0].Key != "k" || string(tail[0].Value) != "v" {
		t.Fatalf("reopen on the real FS replayed %+v, want the one record", tail)
	}
}

// Every generated plan is aimed at a file the tiered store really
// writes: driven through a handful of fsync=always Puts, it fires and
// latches the store.
func TestGeneratedPlansFireOnTier(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		plan := GeneratePlan(seed)
		ffs, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		store, _, err := tiered.Open(tiered.Config{Dir: t.TempDir(), Fsync: persist.FsyncAlways, FS: ffs})
		if err != nil {
			t.Fatalf("plan %s: open: %v", plan, err)
		}
		var putErr error
		for i := 0; i < 20 && putErr == nil; i++ {
			putErr = store.Put(fmt.Sprintf("k%02d", i), []byte("v"))
		}
		store.Close()
		if ffs.TotalInjected() == 0 {
			t.Fatalf("plan %s never fired against the tiered store", plan)
		}
		if !errors.Is(putErr, persist.ErrDegraded) {
			t.Fatalf("plan %s: Put error %v, want ErrDegraded", plan, putErr)
		}
	}
}
