package tiered

import (
	"encoding/hex"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

// The golden bytes of one WAL frame, one segment file and one manifest,
// as the store writes them. A change to the record-frame codec or the
// file layouts that alters a byte on disk or on the wire fails here.
const (
	goldenWALFrame = "2b0000005028ade612627c6b65726e656c3d6c317c73697a653d387b226b65726e656c223a226c31222c2273697a65223a387d"
	goldenSegment  = "4c4f4f505353543120000000c79678af03627c6105616c70686103627c62046265746103667c61087b2278223a317d0a0c000000e5af925140000000d0041684056c040f0b0000006a325cb80103627c61082803667c61300000000000000044000000000000000300000000000000ec1f324a4c4f4f5053535446"
	goldenManifest = "4c4f4f504d414e316c000000a40c7bda7b22736571223a392c226c30223a5b7b226e616d65223a227365672d30303030303030372e737374222c226279746573223a3132332c22636f756e74223a332c226d696e5f6b6579223a22627c61222c226d61785f6b6579223a22667c61227d5d2c226c31223a6e756c6c7d"
)

func TestGoldenBytes(t *testing.T) {
	rec := persist.Record{Key: "b|kernel=l1|size=8", Value: []byte(`{"kernel":"l1","size":8}`)}
	if got := hex.EncodeToString(persist.EncodeFrame(rec)); got != goldenWALFrame {
		t.Errorf("WAL frame = %s, want %s", got, goldenWALFrame)
	}

	fsys, dir := persist.OS(), t.TempDir()
	w, err := newSegWriter(fsys, dir, segName(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []entry{{"b|a", []byte("alpha")}, {"b|b", []byte("beta")}, {"f|a", []byte(`{"x":1}` + "\n")}} {
		if err := w.add(e.key, e.value); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := fsys.ReadFile(filepath.Join(dir, meta.Name))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(seg); got != goldenSegment {
		t.Errorf("segment = %s, want %s", got, goldenSegment)
	}
	s, err := openSegment(fsys, dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	if v, ok, _, err := s.get("b|b"); err != nil || !ok || string(v) != "beta" {
		t.Fatalf("segment get(b|b) = %q, %v, %v", v, ok, err)
	}

	m := &manifest{Seq: 9, L0: []SegmentMeta{meta}}
	if err := saveManifest(fsys, dir, m); err != nil {
		t.Fatal(err)
	}
	man, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(man); got != goldenManifest {
		t.Errorf("manifest = %s, want %s", got, goldenManifest)
	}
	if got, err := loadManifest(fsys, dir); err != nil || got.Seq != 9 || len(got.L0) != 1 || got.L0[0] != meta {
		t.Fatalf("loadManifest = %+v, %v", got, err)
	}
}
