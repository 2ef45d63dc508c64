package persist_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/persist"
	"repro/internal/tiered"
)

// FuzzWALReplay feeds arbitrary bytes to the log replay path and holds
// it to the corrupt-tail contract: replay never panics, stops cleanly at
// the first bad record, accounts for every byte, and the truncate-repair
// a store performs at the reported good offset yields a log that replays
// identically and extends cleanly. The same bytes as the tiered store's
// WAL hold tiered.Open to that repair end to end: it reports the dropped
// tail, replays exactly the good records, and appends after them.
func FuzzWALReplay(f *testing.F) {
	frame := func(key string, val []byte) []byte {
		return persist.EncodeFrame(persist.Record{Key: key, Value: val})
	}
	valid := append([]byte(persist.Magic), frame("k1", []byte(`{"kernel":"l1"}`))...)
	valid = append(valid, frame("k2", []byte(`{"kernel":"matmul","size":8}`))...)

	f.Add([]byte{})
	f.Add([]byte(persist.Magic))
	f.Add([]byte("LOOPMAP9"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])          // torn final frame
	f.Add(append(valid[:0:0], valid...)) // full copy for mutation
	flipped := append(valid[:0:0], valid...)
	flipped[len(persist.Magic)+10] ^= 0x40 // corrupt payload: CRC mismatch
	f.Add(flipped)
	huge := append([]byte(persist.Magic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(huge) // absurd length prefix must not allocate 4 GiB

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		recs, goodOff, dropped, tailErr := persist.ReplayLog(persist.OS(), path)

		// Every byte is either replayed or reported dropped.
		if goodOff < 0 || goodOff > int64(len(data)) {
			t.Fatalf("goodOff %d out of [0, %d]", goodOff, len(data))
		}
		hasMagic := len(data) >= len(persist.Magic) && string(data[:len(persist.Magic)]) == persist.Magic
		if hasMagic {
			if goodOff < int64(len(persist.Magic)) {
				t.Fatalf("valid header but goodOff %d < header size", goodOff)
			}
			if goodOff+dropped != int64(len(data)) {
				t.Fatalf("byte accounting: goodOff %d + dropped %d != %d", goodOff, dropped, len(data))
			}
			if (tailErr == nil) != (dropped == 0) {
				t.Fatalf("tailErr %v inconsistent with dropped %d", tailErr, dropped)
			}
		} else {
			// No usable header: nothing replays, everything is the tail.
			if len(recs) != 0 || goodOff != 0 || dropped != int64(len(data)) || tailErr == nil {
				t.Fatalf("headerless file: recs=%d goodOff=%d dropped=%d tailErr=%v",
					len(recs), goodOff, dropped, tailErr)
			}
		}

		// Truncating to the good offset must replay the same records with
		// a clean tail — this is exactly the repair Open performs.
		if hasMagic {
			cut := filepath.Join(dir, "cut.log")
			if err := os.WriteFile(cut, data[:goodOff], 0o644); err != nil {
				t.Fatal(err)
			}
			recs2, off2, dropped2, err2 := persist.ReplayLog(persist.OS(), cut)
			if err2 != nil || dropped2 != 0 || off2 != goodOff {
				t.Fatalf("repaired log not clean: off=%d dropped=%d err=%v", off2, dropped2, err2)
			}
			if !reflect.DeepEqual(recs, recs2) {
				t.Fatalf("repaired log replays %d records, original replayed %d", len(recs2), len(recs))
			}

			// The repaired log extends cleanly: a frame appended at the
			// good offset replays after every surviving record.
			extra := persist.Record{Key: "post-repair", Value: []byte("v")}
			ext := append(append([]byte(nil), data[:goodOff]...), persist.EncodeFrame(extra)...)
			if err := os.WriteFile(path, ext, 0o644); err != nil {
				t.Fatal(err)
			}
			recs3, _, dropped3, err3 := persist.ReplayLog(persist.OS(), path)
			if err3 != nil || dropped3 != 0 {
				t.Fatalf("log dirty after repair+append: dropped=%d err=%v", dropped3, err3)
			}
			want := append(append([]persist.Record(nil), recs...), extra)
			if !reflect.DeepEqual(recs3, want) {
				t.Fatalf("after repair+append replay has %d records, want %d", len(recs3), len(want))
			}
		}

		// The store's own repair: Open on the damaged WAL truncates it to
		// the good offset, reports what it dropped, and serves a log that
		// takes a Put and replays clean on the next Open.
		storeDir := filepath.Join(dir, "store")
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(storeDir, "wal-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := tiered.Config{Dir: storeDir, Fsync: persist.FsyncNever, MemtableBytes: 1 << 30}
		store, tail, err := tiered.Open(cfg)
		if err != nil {
			t.Fatalf("tiered.Open on damaged WAL: %v", err)
		}
		st := store.Stats()
		if st.DroppedTailBytes != dropped || (st.TailErr == nil) != (tailErr == nil) {
			t.Fatalf("Open reported dropped=%d tailErr=%v, replay saw dropped=%d tailErr=%v",
				st.DroppedTailBytes, st.TailErr, dropped, tailErr)
		}
		assertTail(t, "Open on damaged WAL", tail, lastWins(recs))
		extra := persist.Record{Key: "post-repair", Value: []byte("v")}
		if err := store.Put(extra.Key, extra.Value); err != nil {
			t.Fatalf("Put after repair: %v", err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		store, tail, err = tiered.Open(cfg)
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer store.Close()
		if st := store.Stats(); st.DroppedTailBytes != 0 {
			t.Fatalf("repaired WAL still drops %d bytes on reopen: %v", st.DroppedTailBytes, st.TailErr)
		}
		assertTail(t, "reopen after repair+Put", tail, lastWins(append(append([]persist.Record(nil), recs...), extra)))
	})
}

// lastWins collapses recs the way a store's replay does: one record per
// key, at the key's first position, holding its last value.
func lastWins(recs []persist.Record) []persist.Record {
	var out []persist.Record
	pos := make(map[string]int)
	for _, r := range recs {
		if i, ok := pos[r.Key]; ok {
			out[i].Value = r.Value
			continue
		}
		pos[r.Key] = len(out)
		out = append(out, r)
	}
	return out
}

func assertTail(t *testing.T, what string, got, want []persist.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: record %d is %q=%q, want %q=%q", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}
