package persist_test

import (
	"errors"
	"testing"

	"repro/internal/diskchaos"
	"repro/internal/persist"
	"repro/internal/tiered"
)

// A failed WAL write under fsync=always must latch the durable store:
// the Put errors with ErrDegraded, every later Put is refused, and the
// records acked before the fault replay from the log on reopen, with a
// torn tail (KindShort leaves half a frame) dropped rather than fatal.
func TestWriteFaultsLatchAndPreserveAcked(t *testing.T) {
	for _, kind := range []diskchaos.Kind{diskchaos.KindENOSPC, diskchaos.KindShort, diskchaos.KindEIO} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			ffs, err := diskchaos.New(diskchaos.Plan{Seed: 1, Rules: []diskchaos.Rule{{
				Op: diskchaos.OpWrite, Path: "wal-", Kind: kind, After: 4, Count: -1,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			var acked []string
			for i := 0; i < 10; i++ {
				key := string(rune('a' + i))
				if err := store.Put(key, []byte(`{"v":1}`)); err != nil {
					if !errors.Is(err, persist.ErrDegraded) {
						t.Fatalf("write fault not tagged ErrDegraded: %v", err)
					}
					break
				}
				acked = append(acked, key)
			}
			// Open's magic header is write #1 on the new WAL, so the 4th
			// write is the 3rd Put.
			if len(acked) != 2 {
				t.Fatalf("acked %d Puts, want 2 (fault armed on the 4th write)", len(acked))
			}
			if err := store.Put("late", []byte("v")); !errors.Is(err, persist.ErrDegraded) {
				t.Fatalf("Put after latch: %v", err)
			}
			if store.Degraded() == nil {
				t.Fatal("store should report degraded")
			}
			store.Close()

			store2, recs, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways})
			if err != nil {
				t.Fatalf("reopen after %s: %v", kind, err)
			}
			defer store2.Close()
			if len(recs) != len(acked) {
				t.Fatalf("recovered %d records, acked %d", len(recs), len(acked))
			}
			for i, key := range acked {
				if recs[i].Key != key {
					t.Fatalf("record %d = %q, want %q", i, recs[i].Key, key)
				}
			}
			if kind == diskchaos.KindShort && store2.Stats().DroppedTailBytes == 0 {
				t.Fatal("torn write left no tail to drop — the fault did not tear")
			}
		})
	}
}
