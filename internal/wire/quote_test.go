package wire

import (
	"strconv"
	"strings"
	"testing"
)

// quotePlainRef is the scalar reference predicate the SWAR scan must match.
func quotePlainRef(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// TestQuotePlainSWAR plants every possible byte at every lane of the 8-wide
// scan (plus the scalar tail) and checks the vectorized result against the
// reference. This exercises each SWAR term — non-ASCII, <0x20, DEL, quote,
// backslash — in every lane position.
func TestQuotePlainSWAR(t *testing.T) {
	base := []byte("abcdefghij") // 10 bytes: lanes 0-7 plus 2 tail bytes
	for pos := 0; pos < len(base); pos++ {
		for c := 0; c < 256; c++ {
			s := make([]byte, len(base))
			copy(s, base)
			s[pos] = byte(c)
			str := string(s)
			if got, want := quotePlain(str), quotePlainRef(str); got != want {
				t.Fatalf("quotePlain(%q) = %v, want %v (byte 0x%02x at %d)", str, got, want, c, pos)
			}
		}
	}
	for _, s := range []string{"", "a", "1234567", "12345678", "123456789"} {
		if got, want := quotePlain(s), quotePlainRef(s); got != want {
			t.Fatalf("quotePlain(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestQuoteRoundTrip checks appendQuoted/unquoteToken against strconv on both
// fast-path and escape-requiring strings.
func TestQuoteRoundTrip(t *testing.T) {
	cases := []string{
		"", "plain ascii with spaces", "tab\there", "new\nline",
		`has "quotes" inside`, `back\slash`, "unicode: héllo ☃",
		"ctrl:\x01\x1f", "del:\x7f", "high:\x80\xff",
		strings.Repeat("x", 1000), strings.Repeat("x", 999) + `"`,
	}
	for _, s := range cases {
		q := string(appendQuoted(nil, s))
		if want := strconv.Quote(s); quotePlainRef(s) {
			// Fast path must still be valid Go quoting.
			if dec, err := strconv.Unquote(q); err != nil || dec != s {
				t.Fatalf("appendQuoted(%q) = %s: not valid Go quoting (%v)", s, q, err)
			}
		} else if q != want {
			t.Fatalf("appendQuoted(%q) = %s, want %s", s, q, want)
		}
		got, err := unquoteToken(q)
		if err != nil {
			t.Fatalf("unquoteToken(%s): %v", q, err)
		}
		if got != s {
			t.Fatalf("round trip %q -> %s -> %q", s, q, got)
		}
	}
}

// TestQuotedPrefix checks the memchr fast path against tokens whose closing
// quote is or is not preceded by escapes.
func TestQuotedPrefix(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{`"plain" rest`, `"plain"`, true},
		{`"" rest`, `""`, true},
		{`"a\"b" rest`, `"a\"b"`, true},
		{`"a\\" rest`, `"a\\"`, true},
		{`"esc\\\"deep" tail`, `"esc\\\"deep"`, true},
		{`"unterminated`, "", false},
		{`"escaped end\"`, "", false},
		{`'x' rest`, `'x'`, true},
		{`'\'' rest`, `'\''`, true},
	}
	for _, c := range cases {
		n, err := quotedLen([]byte(c.in))
		if c.ok != (err == nil) {
			t.Fatalf("quotedLen(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if got := c.in[:n]; c.ok && got != c.want {
			t.Fatalf("quotedLen(%q) covers %q, want %q", c.in, got, c.want)
		}
	}
}
