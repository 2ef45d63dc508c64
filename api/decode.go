package api

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unicode/utf8"
)

// Reflection-free decoders for the two /v1/plan messages.
//
// The daemon and the client exchange one fixed JSON shape per message, so
// these scanners fill PlanRequest and PlanResponse straight from the bytes.
// They accept a deliberately small subset of JSON: one object, any key
// order and whitespace, duplicate keys (the last one wins), integer
// literals, strings whose escapes are not \u, and the "cluster" object.
// Everything else — null, unknown or case-variant keys, \u escapes,
// non-integer or out-of-range numbers, invalid UTF-8, trailing data — is
// declined, and the caller hands the same bytes to encoding/json, which
// stays the only authority on what the input means and on how it is
// rejected. Where a decoder accepts, encoding/json accepts too and fills a
// zero value identically (FuzzPlanWire and TestPlanResponseDigest check
// this).

// DecodePlanRequest fills r from b and reports whether it could. On false
// r is untouched and b must be decoded by encoding/json instead (strictly:
// unknown fields and trailing data are errors). On true *r is replaced by
// the decoded request.
func DecodePlanRequest(b []byte, r *PlanRequest) bool {
	var v PlanRequest
	s := scanner{b: b}
	for s.member() {
		switch string(s.key) {
		case "kernel":
			v.Kernel = s.str()
		case "size":
			v.Size = s.int64()
		case "cube_dim":
			if v.CubeDim == nil {
				v.CubeDim = new(int)
			}
			*v.CubeDim = s.int()
		case "exclusive":
			v.Exclusive = s.bool()
		case "pi":
			v.Pi = s.int64s()
		case "search_pi":
			v.SearchPi = s.bool()
		case "search_bound":
			v.SearchBound = s.int64()
		case "merge_factor":
			v.MergeFactor = s.int64()
		case "no_aux":
			v.NoAux = s.bool()
		case "grouping_choice":
			v.GroupingChoice = s.int()
		case "timeout_ms":
			v.TimeoutMS = s.int64()
		default:
			return false
		}
	}
	if !s.done() {
		return false
	}
	*r = v
	return true
}

// DecodePlanResponse fills r from b and reports whether it could. On false
// r is untouched and b must be decoded by json.Unmarshal instead. On true
// *r is replaced by the decoded response. Its string fields share one
// allocation, so none of them aliases b, which the caller may reuse.
func DecodePlanResponse(b []byte, r *PlanResponse) bool {
	var v PlanResponse
	// text collects the decoded strings, each field's at its span; they
	// become one string once the whole object is accepted.
	var stack [1024]byte
	text := stack[:0]
	var kernel, summary, cache span
	s := scanner{b: b}
	for s.member() {
		switch string(s.key) {
		case "kernel":
			text, kernel = s.appendStr(text)
		case "size":
			v.Size = s.int64()
		case "pi":
			v.Pi = s.int64s()
		case "steps":
			v.Steps = s.int64()
		case "iterations":
			v.Iterations = s.int()
		case "blocks":
			v.Blocks = s.int()
		case "max_block":
			v.MaxBlock = s.int()
		case "group_size_r":
			v.GroupSizeR = s.int64()
		case "beta":
			v.Beta = s.int()
		case "tig_edges":
			v.TIGEdges = s.int()
		case "tig_traffic":
			v.TIGTraffic = s.int64()
		case "max_out_degree":
			v.MaxOutDegree = s.int()
		case "cube_dim":
			v.CubeDim = s.int()
		case "procs":
			v.Procs = s.int()
		case "hop_weight":
			v.HopWeight = s.int64()
		case "max_dilation":
			v.MaxDilation = s.int()
		case "min_load":
			v.MinLoad = s.int64()
		case "max_load":
			v.MaxLoad = s.int64()
		case "summary":
			text, summary = s.appendStr(text)
		case "cache":
			text, cache = s.appendStr(text)
		case "cluster":
			// encoding/json decodes a repeated object into the value the
			// first one allocated, so fields merge across duplicates.
			if v.Cluster == nil {
				v.Cluster = new(ClusterInfo)
			}
			s.cluster(v.Cluster)
		default:
			return false
		}
	}
	if !s.done() {
		return false
	}
	all := string(text)
	v.Kernel, v.Summary = kernel.of(all), summary.of(all)
	v.Cache = cacheOutcome(text[cache.start:cache.end], cache.of(all))
	*r = v
	return true
}

// span locates one decoded string in a decoder's text.
type span struct{ start, end int }

func (p span) of(all string) string { return all[p.start:p.end] }

// cacheOutcome returns the named constant for the outcomes the daemon
// sends, and other, the same text as b, for any other.
func cacheOutcome(b []byte, other string) CacheOutcome {
	switch string(b) {
	case "hit":
		return CacheHit
	case "miss":
		return CacheMiss
	case "shared":
		return CacheShared
	}
	return CacheOutcome(other)
}

// cluster decodes the nested "cluster" object into c.
func (s *scanner) cluster(c *ClusterInfo) {
	if s.failed {
		return
	}
	in := scanner{b: s.b, i: s.i}
	for in.member() {
		switch string(in.key) {
		case "shard":
			c.Shard = in.int()
		case "owner":
			c.Owner = in.int()
		case "hops":
			c.Hops = in.int()
		case "epoch":
			c.Epoch = in.uint64()
		default:
			in.failed = true
		}
	}
	if in.failed || !in.closed {
		s.fail()
		return
	}
	s.i = in.i
}

// scanner walks one JSON object. Any input outside the accepted subset
// sets failed, after which every method is a no-op and done reports false.
type scanner struct {
	b      []byte
	i      int
	key    []byte // the current member's key
	opened bool   // '{' consumed
	closed bool   // '}' consumed
	failed bool
}

func (s *scanner) fail() bool {
	s.failed = true
	return false
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// member advances to the object's next member: it consumes '{' or ',',
// the key and the ':', and leaves s at the value with s.key set. It
// returns false at the closing '}' or on failure.
func (s *scanner) member() bool {
	if s.failed {
		return false
	}
	s.ws()
	if !s.opened {
		if !s.eat('{') {
			return s.fail()
		}
		s.opened = true
		s.ws()
		if s.eat('}') {
			s.closed = true
			return false
		}
	} else {
		if s.eat('}') {
			s.closed = true
			return false
		}
		if !s.eat(',') {
			return s.fail()
		}
		s.ws()
	}
	// Keys are matched byte for byte, so a key with an escape or a
	// non-ASCII byte (which encoding/json might fold onto a field name)
	// is declined.
	if !s.eat('"') {
		return s.fail()
	}
	end := skipPlain(s.b, s.i)
	if end == len(s.b) || s.b[end] != '"' {
		return s.fail()
	}
	s.key, s.i = s.b[s.i:end], end+1
	s.ws()
	if !s.eat(':') {
		return s.fail()
	}
	s.ws()
	return true
}

// done reports whether the whole input was one accepted object followed
// by nothing but whitespace.
func (s *scanner) done() bool {
	if s.failed || !s.closed {
		return false
	}
	s.ws()
	return s.i == len(s.b)
}

// plain reports whether c stands for itself in a string body: it is
// not the closing quote, a backslash, a control byte (which
// encoding/json rejects) or part of a multi-byte UTF-8 sequence.
func plain(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf
}

// skipPlain returns the index of the first byte at or after i that is
// not plain, or len(b). It tests eight bytes at a time: a word x holds a
// quote, backslash, control or non-ASCII byte exactly when some byte has
// its high bit set in x, in x minus 0x20 per byte, or in x^c minus 0x01
// per byte for c a quote or backslash. A plain byte sets none of those
// bits and lends no borrow to the byte above it, so the lowest bit set
// is the first such byte's.
func skipPlain(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		if m := (x | (x - 0x20*ones) | ((x ^ '"'*ones) - ones) | ((x ^ '\\'*ones) - ones)) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(b) && plain(b[i]) {
		i++
	}
	return i
}

// rawStr scans a string value and returns its body as it stands in the
// input, and whether the body holds escapes.
func (s *scanner) rawStr() (raw []byte, escaped bool) {
	if s.failed {
		return nil, false
	}
	if !s.eat('"') {
		s.fail()
		return nil, false
	}
	b, i := s.b, s.i
	start := i
	for {
		if i = skipPlain(b, i); i == len(b) {
			s.fail()
			return nil, false
		}
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], escaped
		case c == '\\':
			if i+1 == len(b) || unescapeByte(b[i+1]) == 0 {
				s.fail()
				return nil, false
			}
			escaped = true
			i += 2
		case c >= utf8.RuneSelf:
			// encoding/json replaces invalid UTF-8 with U+FFFD; decline it.
			// A valid sequence holds no ASCII byte, so decoding past the
			// closing quote reads the same rune.
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				s.fail()
				return nil, false
			}
			i += n
		default: // a control byte
			s.fail()
			return nil, false
		}
	}
}

// strBytes decodes a string value. The result aliases the input unless
// the string holds escapes.
func (s *scanner) strBytes() []byte {
	raw, escaped := s.rawStr()
	if escaped {
		return appendUnescaped(make([]byte, 0, len(raw)), raw)
	}
	return raw
}

func (s *scanner) str() string {
	return string(s.strBytes())
}

// appendStr decodes a string value onto dst and returns dst and the
// value's span in it.
func (s *scanner) appendStr(dst []byte) ([]byte, span) {
	raw, escaped := s.rawStr()
	start := len(dst)
	if escaped {
		dst = appendUnescaped(dst, raw)
	} else {
		dst = append(dst, raw...)
	}
	return dst, span{start, len(dst)}
}

// unescapeByte maps the byte after a backslash to the byte it stands for,
// or 0 for \u and invalid escapes.
func unescapeByte(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// appendUnescaped appends the decoding of a string body already checked
// by rawStr to dst, copying the runs between escapes whole.
func appendUnescaped(dst, raw []byte) []byte {
	for {
		j := bytes.IndexByte(raw, '\\')
		if j < 0 {
			return append(dst, raw...)
		}
		dst = append(append(dst, raw[:j]...), unescapeByte(raw[j+1]))
		raw = raw[j+2:]
	}
}

// digits scans an unsigned integer literal in JSON form (no leading zero
// unless it is the only digit) of at most 19 digits, so it fits uint64.
// Longer literals are declined; encoding/json decides whether they fit.
func (s *scanner) digits() uint64 {
	start := s.i
	var n uint64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		n = n*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	if d := s.i - start; d == 0 || d > 19 || (d > 1 && s.b[start] == '0') {
		s.fail()
		return 0
	}
	// A fraction or exponent cannot follow: member and done accept only
	// ',', '}' or whitespace after a value, so "1.5" and "1e2" fail there.
	return n
}

func (s *scanner) int64() int64 {
	if s.failed {
		return 0
	}
	neg := s.eat('-')
	n := s.digits()
	switch {
	case neg && n <= 1<<63:
		return int64(-n)
	case !neg && n < 1<<63:
		return int64(n)
	}
	s.fail()
	return 0
}

func (s *scanner) int() int {
	n := s.int64()
	if int64(int(n)) != n {
		s.fail()
	}
	return int(n)
}

func (s *scanner) uint64() uint64 {
	if s.failed {
		return 0
	}
	return s.digits()
}

func (s *scanner) bool() bool {
	if s.failed {
		return false
	}
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false
	}
	s.fail()
	return false
}

// int64s decodes an array of integers. An empty array yields an empty,
// non-nil slice, as encoding/json gives.
func (s *scanner) int64s() []int64 {
	if s.failed {
		return nil
	}
	if !s.eat('[') {
		s.fail()
		return nil
	}
	var buf [8]int64
	vals := buf[:0]
	s.ws()
	if !s.eat(']') {
		for {
			vals = append(vals, s.int64())
			s.ws()
			if s.eat(']') {
				break
			}
			if s.failed || !s.eat(',') {
				s.fail()
				return nil
			}
			s.ws()
		}
	}
	if s.failed {
		return nil
	}
	return append(make([]int64, 0, len(vals)), vals...)
}
