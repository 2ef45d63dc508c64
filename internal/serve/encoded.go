// The zero-copy hit path: fully-encoded response bytes cached alongside
// the decoded plans.
//
// A plan response is a pure function of (canonical request, cube_dim,
// exclusive) — everything except the per-request cache outcome and
// cluster metadata. The daemon therefore caches the encoded JSON once as
// a *frame*: the invariant response bytes with the closing brace sliced
// off, plus a strong ETag over those bytes. Serving a hit is then a
// single buffer write — frame prefix, a tiny patched-in
// `,"cache":...[,"cluster":...]}` suffix — with no plan remapping, no
// response struct, and no JSON encoder on the path. Because the frame
// bytes are deterministic, the ETag is stable across process restarts,
// so If-None-Match revalidation survives a warm start and collapses a
// hit further, to an empty 304.
package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/api"
	"repro/internal/lru"
	"repro/internal/persist"
	"repro/internal/pool"
)

// bufPool recycles response-encoding buffers across requests on every
// daemon response path (frames, writeJSON, metrics), keeping up to 16.
var bufPool = pool.NewFree[bytes.Buffer](16)

// bufPoolMax bounds what a returned buffer may retain: a one-off giant
// response (a traced simulation) must not pin its footprint forever.
const bufPoolMax = 1 << 20

func getBuf() *bytes.Buffer {
	return bufPool.Get()
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() > bufPoolMax {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// respFrame is one cached encoded response: the invariant JSON bytes
// missing the final '}', and the strong ETag computed over them, also
// kept as the one-value header slice writeFrame serves. newFrame stores
// the closing "}\n" just past the prefix's length, so the frame's
// standalone encoding (see encoded) costs no copy.
type respFrame struct {
	prefix  []byte
	etag    string
	etagHdr []string
}

// encoded returns the frame's standalone encoding, prefix + "}\n":
// exactly what newRespFrame slices back into the frame. It is what the
// disk tier, replicas and transfers store. The caller must not modify
// it.
func (f *respFrame) encoded() []byte {
	return f.prefix[:len(f.prefix)+2]
}

// jsonContentType is the Content-Type header value of every frame, shared
// by all responses so writing it allocates nothing.
var jsonContentType = []string{"application/json"}

// newRespFrame slices a fully-encoded invariant response (as produced by
// a json.Encoder: a single object followed by '\n') into a frame.
func newRespFrame(encoded []byte) *respFrame {
	trimmed := bytes.TrimRight(encoded, "\n")
	return newFrame(trimmed[:len(trimmed)-1]) // drop the closing '}'
}

// newFrame frames a copy of prefix, an invariant response missing its
// closing '}', under the strong ETag "p<hex FNV-1a of prefix>".
func newFrame(prefix []byte) *respFrame {
	enc := append(append(make([]byte, 0, len(prefix)+2), prefix...), '}', '\n')
	prefix = enc[:len(prefix)]
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range prefix {
		h = (h ^ uint64(c)) * prime64
	}
	tag := [19]byte{0: '"', 1: 'p', 18: '"'}
	for i := 17; i >= 2; i, h = i-1, h>>4 {
		tag[i] = hexDigits[h&0xf]
	}
	etag := string(tag[:])
	return &respFrame{prefix: prefix, etag: etag, etagHdr: []string{etag}}
}

const hexDigits = "0123456789abcdef"

// etagMatch implements the If-None-Match comparison: a "*" or any listed
// entity tag matching the frame's. If-None-Match uses the weak comparison
// function (RFC 9110 §13.1.2), so a listed tag's W/ prefix is ignored: a
// proxy that weakens the tag when it compresses the body still gets 304.
func etagMatch(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == etag {
			return true
		}
	}
	return false
}

// respCache is a byte-budgeted LRU of encoded response frames, keyed by
// the canonical request plus its mapping knobs. Entries never go stale —
// a frame is a pure function of its key — so the only invalidation is
// budget eviction.
type respCache struct {
	mu  sync.Mutex
	lru *lru.Cache[*respFrame]
}

// frameBytes is what a frame cached under key is charged.
func frameBytes(key string, f *respFrame) int64 {
	return int64(len(key) + len(f.prefix) + len(f.etag) + 96)
}

func newRespCache(maxBytes int64) *respCache {
	return &respCache{lru: lru.New[*respFrame](maxBytes, nil)}
}

func (c *respCache) get(key string) (*respFrame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// getBytes is get for a key still in its build buffer: the lookup
// converts without allocating, so the hit path never materializes the
// key string.
func (c *respCache) getBytes(key []byte) (*respFrame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.GetBytes(key)
}

// put inserts a frame, evicting least-recently-used entries down to the
// byte budget (the newest entry itself always stays).
func (c *respCache) put(key string, f *respFrame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(key, f, frameBytes(key, f))
}

// records returns every cached frame as a replica record value, its
// standalone encoding, least-recently-used first, so a receiver that
// inserts them in order keeps the warmest when its budget is smaller.
// The transfer path filters this by ownership.
func (c *respCache) records() []persist.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]persist.Record, 0, c.lru.Len())
	c.lru.Walk(func(key string, f *respFrame) {
		out = append(out, persist.Record{Key: key, Value: f.encoded()})
	})
	return out
}

func (c *respCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Cost(), c.lru.Len()
}

// writeFrame serves one response from a frame: ETag always set, an
// If-None-Match match answered with an empty 304, and the cache/cluster
// metadata patched in as a suffix otherwise. encoded reports whether the
// frame came out of the response cache (for the bytes accounting). The
// ETag and Content-Type values are the frame's and the package's
// prebuilt slices, assigned under their canonical keys, so the headers
// cost no allocation.
func (s *Server) writeFrame(w http.ResponseWriter, r *http.Request, f *respFrame, outcome api.CacheOutcome, key string, encoded bool) {
	h := w.Header()
	h["Etag"] = f.etagHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, f.etag) {
		s.metrics.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.Write(f.prefix)
	buf.WriteString(`,"cache":"`)
	buf.WriteString(string(outcome))
	buf.WriteByte('"')
	if ci := s.clusterMeta(key, r); ci != nil {
		fmt.Fprintf(buf, `,"cluster":{"shard":%d,"owner":%d,"hops":%d,"epoch":%d}`, ci.Shard, ci.Owner, ci.Hops, ci.Epoch)
	}
	buf.WriteString("}\n")
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(buf.Bytes())
	if encoded {
		s.metrics.encodedBytes.Add(int64(n))
	}
}
