package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

var bothCodecs = []Protocol{Text, CDR}

// TestRequestHeaderDecodeAllocatesNothing pins the intern table's point: the
// second and every later request naming the same target and method is read
// without a single allocation, in both codecs.
func TestRequestHeaderDecodeAllocatesNothing(t *testing.T) {
	for _, p := range bothCodecs {
		var frame bytes.Buffer
		req := &Message{Type: MsgRequest, RequestID: 9, Method: "ping",
			TargetRef: "@tcp:127.0.0.1:4321#1#IDL:Media/Session:1.0"}
		if err := p.WriteMessage(&frame, req); err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(nil)
		r := bufio.NewReader(src)
		read := func() {
			src.Reset(frame.Bytes())
			r.Reset(src)
			m, err := p.ReadMessage(r)
			if err != nil || m.TargetRef != req.TargetRef || m.Method != req.Method {
				t.Fatalf("%s: read %+v, %v", p.Name(), m, err)
			}
			FreeMessage(m)
		}
		read() // first sight interns both names
		if n := testing.AllocsPerRun(200, read); n != 0 {
			t.Errorf("%s: repeated request header costs %v allocs, want 0", p.Name(), n)
		}
	}
}

// TestInternTableIsBounded feeds the table 10⁵ distinct random names, the
// adversarial peer of DESIGN §16: the table is a fixed array, so entries can
// only be evicted; every lookup still returns the right string, and oversize
// names bypass the table altogether.
func TestInternTableIsBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	name := make([]byte, 0, 2*internMaxLen)
	for i := 0; i < 100_000; i++ {
		name = name[:1+r.Intn(cap(name))]
		for j := range name {
			name[j] = byte('a' + r.Intn(26))
		}
		if got := intern(name); got != string(name) {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	for i := range internTab {
		if p := internTab[i].Load(); p != nil && len(*p) > internMaxLen {
			t.Fatalf("slot %d holds a %d-byte name, cap is %d", i, len(*p), internMaxLen)
		}
	}
	// A name seen twice in a row is served from the table.
	hot := []byte("IDL:Media/Session:1.0")
	first := intern(hot)
	if second := intern(hot); unsafe.StringData(first) != unsafe.StringData(second) {
		t.Error("repeat lookup did not return the canonical copy")
	}
}

// TestInternConcurrent hammers a few shared names and many private ones from
// several goroutines; run under -race it proves readers and evicting writers
// need no lock.
func TestInternConcurrent(t *testing.T) {
	shared := [][]byte{[]byte("list"), []byte("configure"), []byte("open"), []byte("@tcp:h:1#1#IDL:X:1.0")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				want := shared[i%len(shared)]
				if got := intern(want); got != string(want) {
					t.Errorf("intern(%q) = %q", want, got)
					return
				}
				own := fmt.Appendf(nil, "g%d-%d", g, i)
				if got := intern(own); got != string(own) {
					t.Errorf("intern(%q) = %q", own, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestArenaStringsAreBoundedCopies checks the arena rule on both decoders:
// short strings share chunk allocations (64 names cost one, not 64), no
// string aliases the body, and a string above arenaMaxStr stands alone.
func TestArenaStringsAreBoundedCopies(t *testing.T) {
	long := strings.Repeat("L", arenaMaxStr+1)
	for _, p := range bothCodecs {
		enc := p.NewEncoder()
		var want []string
		for i := 0; i < 64; i++ {
			want = append(want, fmt.Sprintf("stream-%02d.mpg", i))
		}
		want = append(want, long, "", "tail")
		for i, s := range want {
			enc.PutString(s)
			enc.PutLong(int32(i)) // non-string tokens interleaved, as in a struct
		}
		body := append([]byte(nil), enc.Bytes()...)
		dec := p.NewDecoder(body)
		var got []string
		allocs := testing.AllocsPerRun(1, func() {
			got = got[:0]
			dec.Reset(body)
			for range want {
				s, err := dec.GetString()
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				if _, err := dec.GetLong(); err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				got = append(got, s)
			}
		})
		// One chunk for this ~2 KiB body plus the long string's own copy.
		if allocs > 2 {
			t.Errorf("%s: decoding %d strings cost %v allocs, want <= 2", p.Name(), len(want), allocs)
		}
		for i := range body {
			body[i] = 0xEE // the lease is recycled and scribbled on
		}
		for i, s := range got {
			if s != want[i] {
				t.Fatalf("%s: string %d = %q after the body was overwritten, want %q", p.Name(), i, s, want[i])
			}
		}
	}
}

// TestArenaRefillStraddle decodes a body several chunks long: strings that
// straddle a chunk boundary trigger a refill and still come out whole, and
// no chunk — what one retained string can pin — exceeds arenaChunk.
func TestArenaRefillStraddle(t *testing.T) {
	for _, p := range bothCodecs {
		enc := p.NewEncoder()
		var want []string
		for i := 0; i < 400; i++ { // ~40 KiB: ten chunks
			s := strings.Repeat(string(rune('a'+i%26)), 1+i%arenaMaxStr)
			want = append(want, s)
			enc.PutString(s)
		}
		dec := p.NewDecoder(enc.Bytes())
		for i, w := range want {
			if got, err := dec.GetString(); err != nil || got != w {
				t.Fatalf("%s: string %d = %q, %v; want %q", p.Name(), i, got, err, w)
			}
			var arena *strArena
			switch d := dec.(type) {
			case *cdrDecoder:
				arena = &d.arena
			case *textDecoder:
				arena = &d.arena
			}
			if len(arena.chunk) > arenaChunk {
				t.Fatalf("%s: arena chunk of %d bytes, bound is %d", p.Name(), len(arena.chunk), arenaChunk)
			}
		}
		if dec.Remaining() != 0 {
			t.Errorf("%s: %d bytes left", p.Name(), dec.Remaining())
		}
	}
}
