package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/gen/media"
	"repro/internal/heidi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The ledger replays, in isolation, the work each layer did for the
// workload's own operations, so the layers can be priced one at a time and
// summed against the end-to-end latency of the traced run. What the rows
// leave unexplained is reported as the remainder, not hidden.

// replayMin is how long each timed replay loop runs at least.
const replayMin = 40 * time.Millisecond

// replayOps is how many operations of the seeded sequence the gen replay
// covers.
const replayOps = 1024

// timeLoop runs body (one pass over n items) until replayMin has passed and
// returns the mean time per item and the passes it made.
func timeLoop(n int, body func()) (nsPerItem float64, passes int) {
	start := time.Now()
	for time.Since(start) < replayMin {
		body()
		passes++
	}
	return float64(time.Since(start)) / float64(passes*n), passes
}

// --- gen: what the generated stubs and skeletons put through the codec -------

// These four functions issue the codec calls the generated media stubs and
// skeletons issue for each operation, with structs going through their
// generated HdMarshal/HdUnmarshal.

func putValue(w wire.Encoder, v heidi.Serializable) {
	w.Begin(v.HdTypeName())
	_ = v.HdMarshal(w) // the generated marshalers of plain structs cannot fail
	w.End()
}

func getValue(r wire.Decoder, v heidi.Serializable) error {
	if _, err := r.BeginGet(); err != nil {
		return err
	}
	if err := v.HdUnmarshal(r); err != nil {
		return err
	}
	return r.EndGet()
}

func marshalArgs(w wire.Encoder, in *inputs, op opKind, arg uint32) {
	switch op {
	case opPlay:
		w.PutString(in.names[arg%catalogueSize])
		w.PutLong(int32(media.HdStreamStatePlaying))
	case opConfigure:
		putValue(w, in.infos[int(arg)%len(in.infos)])
		w.PutBool(arg&1 == 0)
	case opOpen:
		w.PutString(in.bigNames[int(arg)%len(in.bigNames)])
		w.PutLong(int32(arg >> 8))
	case opPrefetch:
		w.PutString(in.names[arg%catalogueSize])
	case opFrameReady:
		w.PutString(channelName)
		w.PutLong(int32(arg))
	}
}

func unmarshalArgs(r wire.Decoder, op opKind) (err error) {
	switch op {
	case opPlay, opOpen, opFrameReady:
		if _, err = r.GetString(); err == nil {
			_, err = r.GetLong()
		}
	case opConfigure:
		if err = getValue(r, &media.HdStreamInfo{}); err == nil {
			_, err = r.GetBool()
		}
	case opPrefetch:
		_, err = r.GetString()
	}
	return err
}

func marshalResult(w wire.Encoder, cat media.HdStreamInfoSeq, op opKind) {
	switch op {
	case opGetVolume:
		w.PutLong(servedVolume)
	case opList:
		w.PutULong(uint32(len(cat)))
		for _, v := range cat {
			putValue(w, v)
		}
	}
}

func unmarshalResult(r wire.Decoder, op opKind) error {
	switch op {
	case opGetVolume:
		_, err := r.GetLong()
		return err
	case opList:
		n, err := r.GetULong()
		if err != nil {
			return err
		}
		out := make(media.HdStreamInfoSeq, n)
		for i := range out {
			out[i] = &media.HdStreamInfo{}
			if err := getValue(r, out[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// genCost is the per-operation price of the generated marshaling code.
type genCost struct {
	marshalNs, unmarshalNs float64
	// serverNs is the share of the two the server's dispatch span already
	// contains (argument unmarshal, result marshal).
	serverNs float64
	allocs   float64
}

// genReplay replays the first replayOps operations of the workload's seeded
// sequence (caller 0's, or the generator's) through proto's encoder and
// decoder. An event is marshaled once and unmarshaled by every subscriber,
// and an operation there is one delivery, so the publisher's share is
// divided by the subscriber count.
func genReplay(wl *workload, in *inputs, proto wire.Protocol) (genCost, error) {
	type rec struct {
		op           opKind
		arg          uint32
		args, result []byte
	}
	src := newOpSource(in.seed, 0, wl.mix)
	cat := catalogue()
	enc := proto.NewEncoder()
	ops := make([]rec, replayOps)
	for i := range ops {
		op, arg := src.next()
		enc.Reset()
		marshalArgs(enc, in, op, arg)
		args := append([]byte(nil), enc.Bytes()...)
		enc.Reset()
		marshalResult(enc, cat, op)
		ops[i] = rec{op, arg, args, append([]byte(nil), enc.Bytes()...)}
	}
	dec := proto.NewDecoder(nil)
	var failed error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clientMarshal, p1 := timeLoop(len(ops), func() {
		for i := range ops {
			enc.Reset()
			marshalArgs(enc, in, ops[i].op, ops[i].arg)
		}
	})
	serverUnmarshal, p2 := timeLoop(len(ops), func() {
		for i := range ops {
			dec.Reset(ops[i].args)
			if err := unmarshalArgs(dec, ops[i].op); err != nil {
				failed = err
			}
		}
	})
	serverMarshal, p3 := timeLoop(len(ops), func() {
		for i := range ops {
			enc.Reset()
			marshalResult(enc, cat, ops[i].op)
		}
	})
	clientUnmarshal, p4 := timeLoop(len(ops), func() {
		for i := range ops {
			dec.Reset(ops[i].result)
			if err := unmarshalResult(dec, ops[i].op); err != nil {
				failed = err
			}
		}
	})
	runtime.ReadMemStats(&after)
	if failed != nil {
		return genCost{}, fmt.Errorf("gen replay: %w", failed)
	}
	if wl.subscribers > 0 {
		clientMarshal /= float64(wl.subscribers)
	}
	return genCost{
		marshalNs:   clientMarshal + serverMarshal,
		unmarshalNs: serverUnmarshal + clientUnmarshal,
		serverNs:    serverUnmarshal + serverMarshal,
		// Every pass runs one of the four stages over every operation.
		allocs: 4 * float64(after.Mallocs-before.Mallocs) / float64((p1+p2+p3+p4)*len(ops)),
	}, nil
}

// --- wire: framing the recorded messages -------------------------------------

// wireReplay returns the mean time to encode and to decode one of the
// recorded frames.
func wireReplay(frames []*wire.Message, proto wire.Protocol) (encodeNs, decodeNs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("wire replay: no frames recorded")
	}
	encoded := make([][]byte, len(frames))
	for i, m := range frames {
		if encoded[i], err = proto.AppendMessage(nil, m); err != nil {
			return 0, 0, fmt.Errorf("wire replay: %w", err)
		}
	}
	var buf []byte
	encodeNs, _ = timeLoop(len(frames), func() {
		for _, m := range frames {
			buf, _ = proto.AppendMessage(buf[:0], m)
		}
	})
	var (
		src bytes.Reader
		br  = bufio.NewReaderSize(nil, 4096)
	)
	decodeNs, _ = timeLoop(len(frames), func() {
		for _, b := range encoded {
			src.Reset(b)
			br.Reset(&src)
			m, rerr := proto.ReadMessage(br)
			if rerr != nil {
				err = rerr
				continue
			}
			wire.FreeMessage(m)
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("wire replay: %w", err)
	}
	return encodeNs, decodeNs, nil
}

// --- transport: bare Send/Recv echo of the recorded frames -------------------

// echoLoop sends back every message a connection delivers.
func echoLoop(c transport.Conn) {
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		err = c.Send(m)
		wire.FreeMessage(m)
		if err != nil {
			return
		}
	}
}

func serveEcho(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go echoLoop(c)
	}
}

// An echo measurement is echoSegments segments of echoTime each, every one
// on a fresh connection.
const (
	echoSegments = 24
	echoTime     = 10 * time.Millisecond
)

// echoRTT is the round trip of the recorded frames against an echo listener
// at addr: no ORB on either side, only framing, the stream and (on TCP) the
// kernel. It is the fastest segment's median. On this host an idle-to-idle
// ping-pong over loopback runs in one of three regimes — 13, 20 or 55 us a
// round trip — depending on where the kernel placed the two threads when the
// connection was made, and mostly stays there for the connection's life: 40
// successive connections gave 51 64 14 55 19 17 19 68 25 68 56 21 53 50 18 18
// 18 55 18 55 25 23 18 23 21 21 20 22 62 22 20 18 13 13 13 13 13 13 14 13.
// The slower regimes are wake-ups across CPUs, not the transport's work, so
// the fastest of many short segments is the transport's own cost (the
// estimator `make bench-diff` uses, for the same reason).
func echoRTT(t transport.Transport, addr string, frames []*wire.Message) (float64, error) {
	best := 0.0
	for seg := 0; seg < echoSegments; seg++ {
		med, err := echoSegment(t, addr, frames)
		if err != nil {
			return 0, fmt.Errorf("echo over %s: %w", t.Name(), err)
		}
		if seg == 0 || med < best {
			best = med
		}
	}
	return best, nil
}

func echoSegment(t transport.Transport, addr string, frames []*wire.Message) (float64, error) {
	c, err := t.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var rtt hist
	for start := time.Now(); time.Since(start) < echoTime; {
		for _, m := range frames {
			sent := time.Now()
			if err := c.Send(m); err != nil {
				return 0, err
			}
			r, err := c.Recv()
			if err != nil {
				return 0, err
			}
			wire.FreeMessage(r)
			rtt.record(int64(time.Since(sent)))
		}
	}
	return rtt.quantile(0.5), nil
}

func inprocRTT(proto wire.Protocol, frames []*wire.Message) (float64, error) {
	t := transport.NewInproc(proto)
	l, err := t.Listen(":0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	go serveEcho(l)
	return echoRTT(t, l.Addr(), frames)
}
