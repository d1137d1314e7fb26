package wire

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// This file holds the two mechanisms that turn bytes of a lease-backed body
// into Go strings without one allocation per string (DESIGN.md §16). Both
// hand out copies, never views: a string the application keeps stays valid
// after the lease it was decoded from is recycled (§9).

// --- strArena: decoded body strings ------------------------------------------

const (
	// arenaChunk bounds one slab — and so what a retained string can pin:
	// a ten-byte name kept by the application holds at most this much
	// alive, whatever the body's size and however many bodies the slab
	// served.
	arenaChunk = 4 << 10
	// arenaMaxStr is the longest string served from the slab. Longer ones
	// get an allocation of their own: they amortize it, and keeping one
	// must not pin a slab besides.
	arenaMaxStr = 256
)

// strArena serves a decoder's GetString from a bump slab that survives
// Reset, so the short strings of successive bodies share one allocation.
// Appending within a strings.Builder's capacity never moves or rewrites the
// bytes behind a String() already handed out, and a full slab is replaced,
// not rewound (Builder.Reset drops the array): every string stays valid for
// as long as it is held. Only the goroutine that owns the decoder appends.
type strArena struct {
	slab strings.Builder
}

// str returns body[off:off+n] as a string that does not alias body.
func (a *strArena) str(body []byte, off, n int) string {
	if n > arenaMaxStr {
		return string(body[off : off+n])
	}
	if n == 0 {
		return ""
	}
	if a.slab.Cap()-a.slab.Len() < n {
		// The first slab is what is left of this body; each replacement
		// at least doubles, so a pooled decoder soon settles at
		// arenaChunk. Either way the slab holds the string: n <= arenaMaxStr
		// and the string lies within the rest of the body.
		size := min(max(2*a.slab.Cap(), len(body)-off), arenaChunk)
		a.slab.Reset()
		a.slab.Grow(size)
	}
	a.slab.Write(body[off : off+n])
	s := a.slab.String()
	return s[len(s)-n:]
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
