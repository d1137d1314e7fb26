package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestReadMessageNeverPanics: arbitrary byte streams fed to either
// protocol's reader produce a message or an error, never a panic and never
// unbounded allocation.
func TestReadMessageNeverPanics(t *testing.T) {
	for _, p := range protocols {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			f := func(raw []byte) bool {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on %q: %v", raw, r)
					}
				}()
				r := bufio.NewReader(bytes.NewReader(raw))
				for i := 0; i < 4; i++ { // drain a few messages max
					if _, err := p.ReadMessage(r); err != nil {
						break
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDecoderNeverPanics: arbitrary bodies through every decoder method.
func TestDecoderNeverPanics(t *testing.T) {
	ops := []func(Decoder) error{
		func(d Decoder) error { _, err := d.GetBool(); return err },
		func(d Decoder) error { _, err := d.GetOctet(); return err },
		func(d Decoder) error { _, err := d.GetShort(); return err },
		func(d Decoder) error { _, err := d.GetUShort(); return err },
		func(d Decoder) error { _, err := d.GetLong(); return err },
		func(d Decoder) error { _, err := d.GetULong(); return err },
		func(d Decoder) error { _, err := d.GetLongLong(); return err },
		func(d Decoder) error { _, err := d.GetULongLong(); return err },
		func(d Decoder) error { _, err := d.GetFloat(); return err },
		func(d Decoder) error { _, err := d.GetDouble(); return err },
		func(d Decoder) error { _, err := d.GetChar(); return err },
		func(d Decoder) error { _, err := d.GetString(); return err },
		func(d Decoder) error { _, err := d.BeginGet(); return err },
		func(d Decoder) error { return d.EndGet() },
	}
	for _, p := range protocols {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			f := func(raw []byte, seed uint16) bool {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on %q: %v", raw, r)
					}
				}()
				d := p.NewDecoder(raw)
				// Apply a pseudo-random op sequence until first error.
				s := uint32(seed)
				for i := 0; i < 16; i++ {
					s = s*1664525 + 1013904223
					if ops[s%uint32(len(ops))](d) != nil {
						break
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCDRLengthLies: frames whose header length exceeds the actual bytes
// must error, not block or over-read.
func TestCDRLengthLies(t *testing.T) {
	var buf bytes.Buffer
	req := wireReq()
	if err := CDR.WriteMessage(&buf, &req); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// Inflate the declared length beyond the frame.
	frame[14] = 0xFF
	if _, err := CDR.ReadMessage(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Error("length-lying frame accepted")
	}
}

func wireReq() Message {
	return Message{Type: MsgRequest, RequestID: 1, TargetRef: "@t:a#1#x", Method: "m"}
}

// FuzzHelloFrame covers the negotiation frame: arbitrary bodies through
// ParseHello never panic (malformed payloads report an error — the caller's
// fall-back-to-static signal — rather than guessing), and any well-formed
// Hello round-trips through Encode/ParseHello and as a framed MsgHello in
// every protocol, leaving the connection readable for the next frame. A body
// over maxHelloLen bytes or listing over maxHelloCodecs codecs never parses.
func FuzzHelloFrame(f *testing.F) {
	f.Add([]byte("HRMI/1 feat=3 codecs=cdr,text"), uint32(1), uint32(3))
	f.Add([]byte("HRMI/0 feat=0"), uint32(2), uint32(0))
	f.Add([]byte("HRMI/1"), uint32(1), uint32(7))
	f.Add([]byte("GET / HTTP/1.1"), uint32(1), uint32(1))
	f.Add([]byte(""), uint32(9), uint32(42))
	f.Add([]byte("HRMI/1 feat=notanumber codecs="), uint32(1), uint32(2))
	f.Add([]byte("HRMI/1 feat=3 codecs=a,b,c,d,e,f,g,h,i"), uint32(1), uint32(3))
	f.Add([]byte("HRMI/1 codecs="+strings.Repeat(",", maxHelloLen)), uint32(1), uint32(3))
	f.Fuzz(func(t *testing.T, raw []byte, version, feat uint32) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseHello panicked on %q: %v", raw, r)
				}
			}()
			h, err := ParseHello(raw)
			if err == nil && (len(raw) > maxHelloLen || len(h.Codecs) > maxHelloCodecs) {
				t.Fatalf("ParseHello accepted a %d-byte body with %d codecs; bounds are %d and %d",
					len(raw), len(h.Codecs), maxHelloLen, maxHelloCodecs)
			}
		}()
		if version == 0 {
			return
		}
		h := Hello{Version: version, Features: Feature(feat), Codecs: []string{"cdr", "text"}}
		got, err := ParseHello(h.Encode())
		if err != nil {
			t.Fatalf("ParseHello(Encode(%+v)): %v", h, err)
		}
		if got.Version != h.Version || got.Features != h.Features || !got.HasCodec("text") {
			t.Fatalf("hello round-trip = %+v, want %+v", got, h)
		}
		for _, p := range protocols {
			var stream []byte
			stream, err := p.AppendMessage(nil, &Message{Type: MsgHello, Body: h.Encode()})
			if err != nil {
				t.Fatalf("%s: AppendMessage(hello): %v", p.Name(), err)
			}
			// The conn must stay usable after a hello: frame a request behind
			// it and read both.
			req := wireReq()
			if stream, err = p.AppendMessage(stream, &req); err != nil {
				t.Fatalf("%s: AppendMessage(request): %v", p.Name(), err)
			}
			r := bufio.NewReader(bytes.NewReader(stream))
			m, err := p.ReadMessage(r)
			if err != nil {
				t.Fatalf("%s: ReadMessage(hello): %v", p.Name(), err)
			}
			if m.Type != MsgHello {
				t.Fatalf("%s: read type %s, want hello", p.Name(), m.Type)
			}
			back, err := ParseHello(m.Body)
			if err != nil || back.Version != h.Version || back.Features != h.Features {
				t.Fatalf("%s: framed hello decode = %+v, %v", p.Name(), back, err)
			}
			FreeMessage(m)
			next, err := p.ReadMessage(r)
			if err != nil || next.Type != MsgRequest {
				t.Fatalf("%s: frame after hello unreadable: %+v, %v", p.Name(), next, err)
			}
			FreeMessage(next)
		}
	})
}

// TestHelloAmplificationBounded: a hello body is wire-supplied and answered
// before admission, so ParseHello must reject a hostile one without
// allocating in proportion to it. A max-size "HRMI/1 codecs=,,,…" body once
// cost a whole-body string copy plus one string header per comma (~17× the
// frame); now it is malformed at a cost independent of its size. The bounds
// themselves reject one byte or one codec too many, and today's offers still
// parse.
func TestHelloAmplificationBounded(t *testing.T) {
	body := []byte("HRMI/1 feat=3 codecs=" + strings.Repeat(",", MaxBodyLen-32))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseHello(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("max-size hello parsed")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("rejecting a %d-byte hello allocated %d bytes", len(body), n)
	}

	codecs := func(n int) []byte {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
		return []byte("HRMI/1 feat=3 codecs=" + strings.Join(names, ","))
	}
	if _, err := ParseHello(codecs(maxHelloCodecs)); err != nil {
		t.Errorf("%d codecs rejected: %v", maxHelloCodecs, err)
	}
	if _, err := ParseHello(codecs(maxHelloCodecs + 1)); err == nil {
		t.Errorf("%d codecs accepted", maxHelloCodecs+1)
	}
	pad := func(n int) []byte {
		return []byte("HRMI/1 feat=3 pad=" + strings.Repeat("x", n-len("HRMI/1 feat=3 pad=")))
	}
	if _, err := ParseHello(pad(maxHelloLen)); err != nil {
		t.Errorf("%d-byte hello rejected: %v", maxHelloLen, err)
	}
	if _, err := ParseHello(pad(maxHelloLen + 1)); err == nil {
		t.Errorf("%d-byte hello accepted", maxHelloLen+1)
	}
	offer := Hello{Version: HelloVersion, Features: knownFeatures, Codecs: []string{"cdr", "text"}}
	if got, err := ParseHello(offer.Encode()); err != nil || got.Features != offer.Features || len(got.Codecs) != 2 {
		t.Errorf("today's offer %q = %+v, %v", offer.Encode(), got, err)
	}
}

// FuzzDeadlineHeader covers the deadline extension of both codecs: arbitrary
// text lines (including malformed @-tokens) never panic the reader, and any
// non-zero deadline round-trips bit-exactly through every protocol.
func FuzzDeadlineHeader(f *testing.F) {
	f.Add("call 1 @tcp:x:1#1#IDL:T:1.0 ping @50 hi", uint32(50))
	f.Add("send 2 @nil poke @0", uint32(1))
	f.Add("call 3 @tcp:x:1#2#IDL:T:1.0 m @99999999999999999999", uint32(1<<31))
	f.Add("call 4 @tcp:x:1#2#IDL:T:1.0 m @-7 x", uint32(4294967295))
	f.Add("goaway", uint32(17))
	f.Fuzz(func(t *testing.T, line string, dl uint32) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("text reader panicked on %q: %v", line, r)
				}
			}()
			r := bufio.NewReader(strings.NewReader(line + "\n"))
			for i := 0; i < 4; i++ {
				if _, err := Text.ReadMessage(r); err != nil {
					break
				}
			}
		}()
		if dl == 0 {
			return
		}
		req := &Message{
			Type: MsgRequest, RequestID: 7,
			TargetRef: "@tcp:h:1#9#IDL:T:1.0", Method: "m",
			Deadline: dl, Body: []byte("x"),
		}
		for _, p := range protocols {
			buf, err := p.AppendMessage(nil, req)
			if err != nil {
				t.Fatalf("%s: AppendMessage: %v", p.Name(), err)
			}
			got, err := p.ReadMessage(bufio.NewReader(bytes.NewReader(buf)))
			if err != nil {
				t.Fatalf("%s: ReadMessage: %v", p.Name(), err)
			}
			if got.Deadline != dl {
				t.Fatalf("%s: deadline round-trip = %d, want %d", p.Name(), got.Deadline, dl)
			}
			if got.TargetRef != req.TargetRef || got.Method != req.Method || string(got.Body) != "x" {
				t.Fatalf("%s: request fields corrupted by deadline token: %+v", p.Name(), got)
			}
			FreeMessage(got)
		}
	})
}

// FuzzKeepaliveFrame covers the liveness extension of both codecs: arbitrary
// ping/pong-shaped text lines never panic the reader, and a ping or pong with
// any request ID round-trips bit-exactly through every protocol with a
// request frame still readable behind it (a keepalive probe must never
// desynchronize the stream it is probing).
func FuzzKeepaliveFrame(f *testing.F) {
	f.Add("ping 1", uint32(1), true)
	f.Add("pong 4294967295", uint32(4294967295), false)
	f.Add("ping", uint32(0), true)
	f.Add("ping -3 trailing junk", uint32(17), false)
	f.Add("pong notanumber", uint32(99), true)
	f.Fuzz(func(t *testing.T, line string, id uint32, ping bool) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("text reader panicked on %q: %v", line, r)
				}
			}()
			r := bufio.NewReader(strings.NewReader(line + "\n"))
			for i := 0; i < 4; i++ {
				if _, err := Text.ReadMessage(r); err != nil {
					break
				}
			}
		}()
		typ := MsgPong
		if ping {
			typ = MsgPing
		}
		probe := &Message{Type: typ, RequestID: id, Static: true}
		for _, p := range protocols {
			stream, err := p.AppendMessage(nil, probe)
			if err != nil {
				t.Fatalf("%s: AppendMessage(%s): %v", p.Name(), typ, err)
			}
			req := wireReq()
			if stream, err = p.AppendMessage(stream, &req); err != nil {
				t.Fatalf("%s: AppendMessage(request): %v", p.Name(), err)
			}
			r := bufio.NewReader(bytes.NewReader(stream))
			got, err := p.ReadMessage(r)
			if err != nil {
				t.Fatalf("%s: ReadMessage(%s): %v", p.Name(), typ, err)
			}
			if got.Type != typ || got.RequestID != id {
				t.Fatalf("%s: %s round-trip = %s/%d, want %s/%d",
					p.Name(), typ, got.Type, got.RequestID, typ, id)
			}
			if len(got.Body) != 0 {
				t.Fatalf("%s: %s carried a body: %q", p.Name(), typ, got.Body)
			}
			FreeMessage(got)
			next, err := p.ReadMessage(r)
			if err != nil || next.Type != MsgRequest {
				t.Fatalf("%s: frame after %s unreadable: %+v, %v", p.Name(), typ, next, err)
			}
			FreeMessage(next)
		}
	})
}
