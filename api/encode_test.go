package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestAppendJSONStringMatchesEncodingJSON holds the string escaping to
// encoding/json, with HTML escaping on (json.Marshal, which the request
// encoder matches) and off (the daemon's frame encoder), on the cases
// plan bodies never reach: quotes, backslashes, every control byte,
// HTML characters, invalid UTF-8, U+2028 and U+2029, and multi-byte
// runes cut at the end of the input.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "matmul", `a"b\c`, "<&>", "Π·x = 0, β", "\u2028 \u2029", "\xff", "ok\xe2\x80", "\xed\xa0\x80", "\U0001F600"}
	for c := 0; c < 0x20; c++ {
		cases = append(cases, fmt.Sprintf("x%cy", c))
	}
	for _, html := range []bool{false, true} {
		for _, s := range cases {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(s); err != nil {
				t.Fatal(err)
			}
			w := bytes.TrimSuffix(want.Bytes(), []byte("\n"))
			if got := AppendJSONString(nil, s, html); !bytes.Equal(got, w) {
				t.Errorf("AppendJSONString(%q, %v) = %s, encoding/json gives %s", s, html, got, w)
			}
			if got := AppendJSONString(nil, []byte(s), html); !bytes.Equal(got, w) {
				t.Errorf("AppendJSONString([]byte(%q), %v) = %s, encoding/json gives %s", s, html, got, w)
			}
		}
	}
}
