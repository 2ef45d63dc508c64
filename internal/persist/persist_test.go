package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeLog writes recs as a log file and returns its path and bytes.
func writeLog(t *testing.T, recs []Record) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func numbered(n int, value string) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("k%d", i), Value: []byte(value)}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	want := []Record{
		{Key: "a", Value: []byte(`{"kernel":"l1","size":8}`)},
		{Key: "b", Value: []byte{}},
		{Key: "c", Value: bytes.Repeat([]byte{0xff}, 1024)},
	}
	path, data := writeLog(t, want)
	got, goodOff, dropped, tailErr := ReplayLog(OS(), path)
	if tailErr != nil || dropped != 0 || goodOff != int64(len(data)) {
		t.Fatalf("clean log reported tail damage: off=%d dropped=%d err=%v", goodOff, dropped, tailErr)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if recs, _, _, err := ReplayLog(OS(), filepath.Join(t.TempDir(), "missing.log")); err != nil || len(recs) != 0 {
		t.Fatalf("missing log replayed %d records, err %v", len(recs), err)
	}
}

// TestCorruptTailBitFlip flips one bit in the final record: replay keeps
// every earlier record and reports the damage at the last good offset,
// so truncating there yields a clean log.
func TestCorruptTailBitFlip(t *testing.T) {
	path, data := writeLog(t, numbered(5, "payload"))
	data[len(data)-3] ^= 0x10 // bit-flip inside the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, goodOff, dropped, tailErr := ReplayLog(OS(), path)
	if len(recs) != 4 {
		t.Fatalf("replay after bit flip kept %d records, want 4", len(recs))
	}
	if tailErr == nil || dropped == 0 || goodOff+dropped != int64(len(data)) {
		t.Fatalf("bit flip misreported: off=%d dropped=%d err=%v", goodOff, dropped, tailErr)
	}
	if err := os.WriteFile(path, data[:goodOff], 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, _, _, err := ReplayLog(OS(), path); err != nil || len(recs) != 4 {
		t.Fatalf("truncated log: %d records, err %v", len(recs), err)
	}
}

// TestTornTail simulates a SIGKILL mid-write: the final frame is cut short.
func TestTornTail(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // inside payload, inside header, mid-frame
		path, data := writeLog(t, numbered(3, "0123456789"))
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, _, tailErr := ReplayLog(OS(), path)
		if len(recs) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(recs))
		}
		if tailErr == nil {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
	}
}

// TestBadLengthPrefix corrupts a length prefix into an absurd value.
func TestBadLengthPrefix(t *testing.T) {
	good := Record{Key: "good", Value: []byte("v")}
	path, data := writeLog(t, []Record{good, {Key: "bad", Value: []byte("v")}})
	second := len(Magic) + len(EncodeFrame(good))
	data[second+3] = 0x7f // length becomes ~2^31: absurd
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, goodOff, _, tailErr := ReplayLog(OS(), path)
	if len(recs) != 1 || recs[0].Key != "good" {
		t.Fatalf("replay kept %d records, want just \"good\"", len(recs))
	}
	if tailErr == nil || goodOff != int64(second) {
		t.Fatalf("bad length prefix misreported: off=%d err=%v", goodOff, tailErr)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": FsyncInterval, "interval": FsyncInterval,
		"always": FsyncAlways, "never": FsyncNever,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}
