package gen_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen/heidia"
	"repro/internal/gen/media"
	"repro/internal/heidi"
	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/wire"
)

// These tests pin what DESIGN §16 promises of the receive side of a call:
// how little it allocates, that what it hands out outlives the read buffer
// it was decoded from, and that a wire-supplied sequence length cannot size
// an allocation the body does not back.

var bothCodecs = []wire.Protocol{wire.Text, wire.CDR}

// catalogueSession serves a fixed stream list and keeps nothing, so every
// allocation a round trip makes is the runtime's or the generated code's.
type catalogueSession struct {
	sessionImpl
	cat media.HdStreamInfoSeq
}

func (s *catalogueSession) List() (media.HdStreamInfoSeq, error)             { return s.cat, nil }
func (s *catalogueSession) Configure(*media.HdStreamInfo, heidi.XBool) error { return nil }

func catalogue(n int) media.HdStreamInfoSeq {
	out := make(media.HdStreamInfoSeq, n)
	for i := range out {
		out[i] = &media.HdStreamInfo{
			Name:        fmt.Sprintf("stream-%02d.mpg", i),
			BitrateKbps: int32(400 + 137*i),
			FrameRate:   10 + float64(i%5)*5,
			HasAudio:    heidi.XBool(i%3 != 0),
		}
	}
	return out
}

// inprocSession exports a catalogueSession on one ORB and resolves it from
// another over the in-process transport: both ends of every call run in this
// process, so testing.AllocsPerRun (a process-wide count) sees both sides.
func inprocSession(t testing.TB, proto wire.Protocol, cat media.HdStreamInfoSeq) (media.HdSession, *catalogueSession) {
	t.Helper()
	setupValues()
	inproc := transport.NewInproc(proto)
	opts := orb.Options{Protocol: proto, Transport: inproc, ListenAddr: ":0"}
	server := orb.New(opts)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Shutdown() })
	impl := &catalogueSession{cat: cat}
	ref, err := server.Export(impl, media.NewHdSessionTable(impl))
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(opts)
	media.RegisterMediaStubs(client)
	t.Cleanup(func() { client.Shutdown() })
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	return obj.(media.HdSession), impl
}

// TestDecodeAllocationPins counts allocations over whole round trips, client
// and server together: a ping makes none; a 64-struct list makes three (the
// pointer slice, the one slab behind it, one string arena chunk); a
// configure makes two (the struct, its arena chunk).
func TestDecodeAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the code's own")
	}
	info := &media.HdStreamInfo{Name: "cfg-7-deadbeef.mpg", BitrateKbps: 1200, FrameRate: 29.97, HasAudio: heidi.XTrue}
	for _, proto := range bothCodecs {
		sess, _ := inprocSession(t, proto, catalogue(64))
		pins := []struct {
			name string
			max  float64
			call func() error
		}{
			{"ping", 0, sess.Ping},
			{"list of 64", 3, func() error {
				l, err := sess.List()
				if err == nil && len(l) != 64 {
					err = fmt.Errorf("list returned %d entries", len(l))
				}
				return err
			}},
			{"configure", 2, func() error { return sess.Configure(info, heidi.XTrue) }},
		}
		for _, pin := range pins {
			call := func() {
				if err := pin.call(); err != nil {
					t.Fatalf("%s %s: %v", proto.Name(), pin.name, err)
				}
			}
			for i := 0; i < 8; i++ {
				call() // dial, fill the pools, intern the names
			}
			if got := testing.AllocsPerRun(100, call); got > pin.max {
				t.Errorf("%s %s: %v allocs per round trip, want <= %v", proto.Name(), pin.name, got, pin.max)
			}
		}
	}
}

// TestDecodedValuesOutliveRelease: the stub releases its call — and with it
// the reply's read-buffer lease — before it returns. Churn the lease pool
// with frames of junk, as FuzzFreeMessage does from the inside, so a recycled
// buffer is certainly overwritten; every decoded name and struct must still
// read as sent, because strings are arena copies and structs live in a slab
// of their own.
func TestDecodedValuesOutliveRelease(t *testing.T) {
	want := catalogue(64)
	for _, proto := range bothCodecs {
		sess, _ := inprocSession(t, proto, want)
		got, err := sess.List()
		if err != nil {
			t.Fatal(err)
		}
		var junk bytes.Buffer
		scribble := &wire.Message{Type: wire.MsgReply, RequestID: 1, Static: true,
			Body: bytes.Repeat([]byte{'~'}, 8<<10)}
		for i := 0; i < 64; i++ {
			if err := proto.WriteMessage(&junk, scribble); err != nil {
				t.Fatal(err)
			}
		}
		r := bufio.NewReader(&junk)
		var held []*wire.Message
		for i := 0; i < 64; i++ {
			m, err := proto.ReadMessage(r)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, m) // hold them all: each takes a distinct lease
		}
		for _, m := range held {
			wire.FreeMessage(m)
		}
		if _, err := sess.List(); err != nil { // and the path itself re-leases
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: list decoded before the lease was recycled no longer reads as sent", proto.Name())
		}
	}
}

// lengthLie is the body of a message whose only content is a sequence length
// of 2³²−1.
func lengthLie(proto wire.Protocol) []byte {
	enc := proto.NewEncoder()
	enc.PutULong(math.MaxUint32)
	return append([]byte(nil), enc.Bytes()...)
}

// replyWith starts a fake server on inproc that answers every request with
// an OK reply carrying body, and returns a session stub aimed at it.
func replyWith(t testing.TB, proto wire.Protocol, body func() []byte) media.HdSession {
	t.Helper()
	inproc := transport.NewInproc(proto)
	l, err := inproc.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					req, err := c.Recv()
					if err != nil {
						return
					}
					reply := &wire.Message{Type: wire.MsgReply, RequestID: req.RequestID, Body: body(), Static: true}
					wire.FreeMessage(req)
					if c.Send(reply) != nil {
						return
					}
				}
			}()
		}
	}()
	client := orb.New(orb.Options{Protocol: proto, Transport: inproc})
	t.Cleanup(func() { client.Shutdown() })
	ref := orb.ObjectRef{Proto: inproc.Name(), Addr: l.Addr(), ObjectID: "1", TypeID: media.HdSessionRepoID}
	return &media.HdSessionStub{HdORB: client, Ref: ref}
}

// requestWith starts a server exporting a Heidi::A servant and returns a
// function that sends it one raw request for method with body and returns
// the reply. A request the frame layer itself refuses makes the server drop
// the connection, which is reported as an error; the next send dials afresh.
func requestWith(t testing.TB, proto wire.Protocol) func(method string, body []byte) (*wire.Message, error) {
	t.Helper()
	inproc := transport.NewInproc(proto)
	server := orb.New(orb.Options{Protocol: proto, Transport: inproc, ListenAddr: ":0"})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Shutdown() })
	heidia.RegisterAStubs(server)
	impl := &quietA{}
	ref, err := server.Export(impl, heidia.NewHdATable(impl))
	if err != nil {
		t.Fatal(err)
	}
	var conn transport.Conn
	t.Cleanup(func() {
		if conn != nil {
			conn.Close()
		}
	})
	return func(method string, body []byte) (*wire.Message, error) {
		if conn == nil {
			if conn, err = inproc.Dial(ref.Addr); err != nil {
				return nil, err
			}
		}
		req := &wire.Message{Type: wire.MsgRequest, RequestID: 7, TargetRef: ref.String(), Method: method, Body: body, Static: true}
		err := conn.Send(req)
		var reply *wire.Message
		if err == nil {
			reply, err = conn.Recv()
		}
		if err != nil {
			conn.Close()
			conn = nil
		}
		return reply, err
	}
}

// quietA is a Heidi::A servant that touches none of its arguments: the
// references a fuzzed sequence decodes to must not be called.
type quietA struct{ aImpl }

func (*quietA) T(heidia.HdSSequence) error { return nil }

// TestSequenceLengthLie: a 0xFFFFFFFF sequence length with nothing behind it
// used to reach make() and kill the process. In a reply it must surface from
// the stub as an unmarshal error; in a request the server must answer with a
// system error and keep serving.
func TestSequenceLengthLie(t *testing.T) {
	for _, proto := range bothCodecs {
		lie := lengthLie(proto)
		sess := replyWith(t, proto, func() []byte { return lie })
		if l, err := sess.List(); err == nil || !strings.Contains(err.Error(), "sequence length") {
			t.Errorf("%s reply: List = %d entries, err %v; want a sequence-length error", proto.Name(), len(l), err)
		}
		send := requestWith(t, proto)
		reply, err := send("t", lie)
		if err != nil {
			t.Fatalf("%s request: %v", proto.Name(), err)
		}
		if reply.Status != wire.StatusSystemError || !strings.Contains(reply.ErrMsg, "sequence length") {
			t.Errorf("%s request: status %s %q, want system-error naming the sequence length", proto.Name(), reply.Status, reply.ErrMsg)
		}
		wire.FreeMessage(reply)
		if reply, err = send("ping", nil); err != nil || reply.Status != wire.StatusOK {
			t.Errorf("%s: server did not survive the lie: %v, %+v", proto.Name(), err, reply)
		}
		wire.FreeMessage(reply)
	}
}

// FuzzSeqDecode feeds arbitrary bodies to the generated sequence unmarshaling
// code, as a reply to a stub (sequence of structs, slab path) and as a
// request to a skeleton (sequence of references), in both codecs. Whatever
// the bytes say, neither side may panic or exhaust memory, and a sequence
// that does decode cannot have more elements than the body had bytes.
func FuzzSeqDecode(f *testing.F) {
	for _, proto := range bothCodecs {
		f.Add(lengthLie(proto))
		enc := proto.NewEncoder()
		enc.PutULong(2)
		for _, v := range catalogue(2) {
			enc.Begin(v.HdTypeName())
			v.HdMarshal(enc)
			enc.End()
		}
		f.Add(append([]byte(nil), enc.Bytes()...))
	}
	type rig struct {
		body []byte
		list func() (media.HdStreamInfoSeq, error)
		send func(method string, body []byte) (*wire.Message, error)
	}
	var rigs []*rig
	for _, proto := range bothCodecs {
		r := &rig{send: requestWith(f, proto)}
		r.list = replyWith(f, proto, func() []byte { return r.body }).List
		rigs = append(rigs, r)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// A text frame is one line; the body cannot carry its terminator.
		body = bytes.ReplaceAll(body, []byte{'\n'}, []byte{' '})
		for _, r := range rigs {
			r.body = body
			if l, err := r.list(); err == nil && len(l) > len(body) {
				t.Fatalf("decoded %d elements from a %d-byte body", len(l), len(body))
			}
			// A body the frame layer refuses (text: a malformed @deadline
			// token) costs the connection; anything else must be answered.
			if reply, err := r.send("t", body); err == nil {
				if reply.Status != wire.StatusOK && reply.Status != wire.StatusSystemError {
					t.Fatalf("request answered %s %q", reply.Status, reply.ErrMsg)
				}
				wire.FreeMessage(reply)
			}
			reply, err := r.send("ping", nil)
			if err != nil || reply.Status != wire.StatusOK {
				t.Fatalf("server did not survive the request: %v, %+v", err, reply)
			}
			wire.FreeMessage(reply)
		}
	})
}

// FuzzMarshalDifferential round-trips random Media values through the
// generated marshalers over both codecs — structs in a sequence (the stub's
// slab path, over a real call), a union and bare strings straight through an
// encoder/decoder pair. Each codec must return exactly what was sent, which
// also makes them agree with each other. The fuzzed string is spliced in at
// lengths around the arena's limits, so quoting, NUL bytes, the empty string
// and strings straddling an arena refill all occur.
func FuzzMarshalDifferential(f *testing.F) {
	f.Add(int64(1), "plain.mpg")
	f.Add(int64(2), "")
	f.Add(int64(3), "quote\" back\\slash \x00 nul \n newline \xff bad-utf8 é")
	f.Add(int64(4), strings.Repeat("x", 256)) // the longest arena-served string
	f.Add(int64(5), strings.Repeat("y", 257)) // the shortest stand-alone one
	f.Add(int64(6), strings.Repeat("z", 4096))
	type rig struct {
		proto wire.Protocol
		sess  media.HdSession
		impl  *catalogueSession
	}
	var rigs []*rig
	for _, proto := range bothCodecs {
		r := &rig{proto: proto}
		r.sess, r.impl = inprocSession(f, proto, nil)
		rigs = append(rigs, r)
	}
	f.Fuzz(func(t *testing.T, seed int64, s string) {
		rnd := rand.New(rand.NewSource(seed))
		pick := func() string {
			switch rnd.Intn(4) {
			case 0:
				return s
			case 1:
				return s + strings.Repeat("p", rnd.Intn(300))
			case 2:
				return fmt.Sprintf("stream-%d.mpg", rnd.Intn(1000))
			}
			return ""
		}
		cat := make(media.HdStreamInfoSeq, rnd.Intn(100))
		for i := range cat {
			cat[i] = &media.HdStreamInfo{Name: pick(), BitrateKbps: rnd.Int31() - 1<<30,
				FrameRate: rnd.NormFloat64() * 1e3, HasAudio: heidi.XBool(rnd.Intn(2) == 0)}
		}
		events := []media.HdEvent{
			{D: 0, Message: pick()}, {D: 1, Position: rnd.Int31()}, {D: rnd.Int31n(100) + 2, Ok: heidi.XTrue},
		}
		names := make([]string, rnd.Intn(64))
		for i := range names {
			names[i] = pick()
		}
		for _, r := range rigs {
			r.impl.cat = cat
			got, err := r.sess.List()
			if err != nil {
				t.Fatalf("%s list: %v", r.proto.Name(), err)
			}
			if !reflect.DeepEqual(got, cat) {
				t.Fatalf("%s: list of %d came back different", r.proto.Name(), len(cat))
			}

			enc := r.proto.NewEncoder()
			for i := range events {
				enc.Begin(events[i].HdTypeName())
				if err := events[i].HdMarshal(enc); err != nil {
					t.Fatal(err)
				}
				enc.End()
			}
			for _, n := range names {
				enc.PutString(n)
			}
			dec := r.proto.NewDecoder(enc.Bytes())
			for i := range events {
				var e media.HdEvent
				if _, err := dec.BeginGet(); err != nil {
					t.Fatalf("%s event %d: %v", r.proto.Name(), i, err)
				}
				if err := e.HdUnmarshal(dec); err != nil {
					t.Fatalf("%s event %d: %v", r.proto.Name(), i, err)
				}
				if err := dec.EndGet(); err != nil || e != events[i] {
					t.Fatalf("%s event %d: got %+v, %v; want %+v", r.proto.Name(), i, e, err, events[i])
				}
			}
			for i, n := range names {
				if got, err := dec.GetString(); err != nil || got != n {
					t.Fatalf("%s name %d: got %q, %v; want %q", r.proto.Name(), i, got, err, n)
				}
			}
			if dec.Remaining() != 0 {
				t.Fatalf("%s: %d bytes left undecoded", r.proto.Name(), dec.Remaining())
			}
		}
	})
}
