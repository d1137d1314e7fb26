package wire

import (
	"hash/maphash"
	"sync/atomic"
)

// This file holds the two mechanisms that turn bytes of a lease-backed body
// into Go strings without one allocation per string (DESIGN.md §16). Both
// hand out copies, never views: a string the application keeps stays valid
// after the lease it was decoded from is recycled (§9).

// --- strArena: decoded body strings ------------------------------------------

const (
	// arenaChunk bounds one arena copy — and so what a retained substring
	// can pin: a ten-byte name kept by the application holds at most this
	// much of a body alive, whatever the body's size.
	arenaChunk = 4 << 10
	// arenaMaxStr is the longest string served from the arena. Longer ones
	// get an allocation of their own: they amortize it, and keeping one
	// must not pin a chunk besides.
	arenaMaxStr = 256
)

// strArena serves a decoder's GetString: an immutable copy of a window of
// the body, addressed by body offset, so every short string inside the
// window is a substring of one allocation. The window is refilled when a
// string falls outside it; the old chunk stays with whoever kept substrings
// of it.
type strArena struct {
	chunk string // copy of body[base : base+len(chunk)]
	base  int
}

// str returns body[off:off+n] as a string that does not alias body.
func (a *strArena) str(body []byte, off, n int) string {
	if n > arenaMaxStr {
		return string(body[off : off+n])
	}
	if n == 0 {
		return ""
	}
	if off < a.base || off+n > a.base+len(a.chunk) {
		end := off + arenaChunk
		if end > len(body) {
			end = len(body)
		}
		a.chunk, a.base = string(body[off:end]), off
	}
	return a.chunk[off-a.base : off-a.base+n]
}

// --- intern: request headers and composite tags -------------------------------

const (
	// internSets × 2 slots of at most internMaxLen bytes: the table tops
	// out near 160 KiB however many distinct names peers send.
	internSets   = 512
	internMaxLen = 128
)

var (
	internSeed = maphash.MakeSeed()
	internTab  [internSets * 2]atomic.Pointer[string]
)

// intern returns b as a string, sharing one canonical copy among repeats.
// Target references, method names and composite tags are a small set that
// every frame repeats, so a hit — a hash and a byte compare, no lock — is
// the common case and costs no allocation. The table is a fixed two-way
// set-associative cache keyed by a per-process seeded hash: a peer sending
// endless distinct names evicts entries (each miss costs the string plus its
// slot box) but can never grow it, and oversize names bypass it.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	h := maphash.Bytes(internSeed, b)
	set := internTab[h%internSets*2:][:2]
	victim := &set[h>>63] // both ways taken: the hash's top bit picks
	for i := range set {
		p := set[i].Load()
		if p == nil {
			victim = &set[i]
		} else if *p == string(b) {
			return *p
		}
	}
	s := string(b)
	victim.Store(&s)
	return s
}
