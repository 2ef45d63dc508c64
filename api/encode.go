package api

import (
	"strconv"
	"unicode/utf8"
)

// Reflection-free encoders: the client's /v1/plan request body and the
// JSON string escaping the daemon's frame encoder shares with it.

// AppendPlanRequest appends the JSON encoding of r to b, byte for byte
// what json.Marshal(r) returns (FuzzPlanWire checks this).
func AppendPlanRequest(b []byte, r *PlanRequest) []byte {
	b = AppendJSONString(append(b, `{"kernel":`...), r.Kernel, true)
	b = strconv.AppendInt(append(b, `,"size":`...), r.Size, 10)
	if r.CubeDim == nil {
		b = append(b, `,"cube_dim":null`...)
	} else {
		b = strconv.AppendInt(append(b, `,"cube_dim":`...), int64(*r.CubeDim), 10)
	}
	if r.Exclusive {
		b = append(b, `,"exclusive":true`...)
	}
	if len(r.Pi) > 0 {
		b = append(b, `,"pi":[`...)
		for i, x := range r.Pi {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, x, 10)
		}
		b = append(b, ']')
	}
	if r.SearchPi {
		b = append(b, `,"search_pi":true`...)
	}
	b = appendNonZero(b, `,"search_bound":`, r.SearchBound)
	b = appendNonZero(b, `,"merge_factor":`, r.MergeFactor)
	if r.NoAux {
		b = append(b, `,"no_aux":true`...)
	}
	b = appendNonZero(b, `,"grouping_choice":`, int64(r.GroupingChoice))
	b = appendNonZero(b, `,"timeout_ms":`, r.TimeoutMS)
	return append(b, '}')
}

// appendNonZero appends an omitempty integer member: name, then x, unless
// x is zero.
func appendNonZero(b []byte, name string, x int64) []byte {
	if x == 0 {
		return b
	}
	return strconv.AppendInt(append(b, name...), x, 10)
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string exactly as encoding/json
// writes it: '"', '\\' and control characters escaped (\b, \f, \n, \r
// and \t by their short forms), invalid UTF-8 replaced by \ufffd, and
// U+2028 and U+2029 escaped. With escapeHTML, '<', '>' and '&' are
// escaped as \u003c, \u003e and \u0026, as json.Marshal does; without,
// they stay as they are, as an Encoder with SetEscapeHTML(false) writes.
func AppendJSONString[T string | []byte](b []byte, s T, escapeHTML bool) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!escapeHTML || (c != '<' && c != '>' && c != '&')) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		// At most UTFMax bytes, so the conversion needs no allocation.
		r, size := utf8.DecodeRune([]byte(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
