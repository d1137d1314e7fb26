package main

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The traced run sees each layer from outside, through seams that are
// already public: a wire.Protocol and a transport.Transport that delegate,
// client and server interceptors, and the servant wrapper. Every seam
// records a span and a few counts into one tracer per process. Spans inside
// internal/ are a later issue.

type spanKind uint8

const (
	spClientCall spanKind = iota
	spServerDispatch
	spServant
	spSend
	spRecv
	spDial
	spPublish
	numSpans
)

// maxFrames bounds the frames kept for the wire replay.
const maxFrames = 512

// counter names one of the tracer's plain counts.
type counter int

const (
	cFrames counter = iota // frames and write calls, all connections
	cWrites
	cDialFrames // the same on the connections this process dialled
	cDialWrites
	cBytesOut
	// Request frames received and dispatches entered, with the sums of
	// their instants: the difference of the means is the mean wait between
	// the reader returning a request and the servant chain starting on it.
	cReqRecvN
	cReqRecvAt
	cDispatchN
	cDispatchAt
	// The two below are not window counts: connections dialled since the
	// process started, and dialled connections open now.
	cDials
	cOpen
	numCounters
)

// spanTotal is the spans of one kind, counted and summed. It is padded to a
// cache line: sixteen callers add to different kinds at once.
type spanTotal struct {
	n, ns atomic.Int64
	_     [48]byte
}

// tracer holds one process's spans. A span is one layer crossing, stamped in
// wall-clock UnixNano so the two processes share a timeline. Only the totals
// per kind are kept: self time is a kind's total minus the totals of the
// kinds it covers, and the kinds join by sums (the windows hold no in-flight
// work). A timeline of single spans, with parent and request id, comes with
// the spans inside internal/, a later issue.
type tracer struct {
	epoch  int64 // UnixNano the instant sums are relative to, so they cannot overflow
	totals [numSpans]spanTotal
	c      [numCounters]atomic.Int64

	mu      sync.Mutex
	sample  []*wire.Message
	sampled atomic.Int32 // len(sample), readable without the lock
}

func newTracer() *tracer { return &tracer{epoch: time.Now().UnixNano()} }

func (t *tracer) record(kind spanKind, start, end int64) {
	t.totals[kind].n.Add(1)
	t.totals[kind].ns.Add(end - start)
}

// traceCounts is a tracer's totals at one instant; the window's figures are
// the difference of two.
type traceCounts struct {
	N, Ns [numSpans]int64
	C     [numCounters]int64
}

func (t *tracer) counts() traceCounts {
	var c traceCounts
	if t == nil {
		return c
	}
	for k := range t.totals {
		c.N[k], c.Ns[k] = t.totals[k].n.Load(), t.totals[k].ns.Load()
	}
	for i := range t.c {
		c.C[i] = t.c[i].Load()
	}
	return c
}

// sub returns what c counted since a; cDials and cOpen stay as they are now.
func (c traceCounts) sub(a traceCounts) traceCounts {
	for k := range c.N {
		c.N[k] -= a.N[k]
		c.Ns[k] -= a.Ns[k]
	}
	for i := counter(0); i < cDials; i++ {
		c.C[i] -= a.C[i]
	}
	return c
}

// add returns the two processes' counts together.
func (c traceCounts) add(o traceCounts) traceCounts {
	for k := range c.N {
		c.N[k] += o.N[k]
		c.Ns[k] += o.Ns[k]
	}
	for i := range c.C {
		c.C[i] += o.C[i]
	}
	return c
}

func (c traceCounts) meanNs(k spanKind) float64 { return ratio(float64(c.Ns[k]), float64(c.N[k])) }

// startSampling drops the frames sampled so far (warm-up traffic) so the
// replay sees the measured window's own.
func (t *tracer) startSampling() {
	t.mu.Lock()
	t.sample = nil
	t.sampled.Store(0)
	t.mu.Unlock()
}

func (t *tracer) frameSample() []*wire.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*wire.Message(nil), t.sample...)
}

// keep copies m into the replay sample while there is room. The copy owns
// its body: m's may view a pooled read buffer that is recycled on free.
func (t *tracer) keep(m *wire.Message) {
	if t.sampled.Load() >= maxFrames || (m.Type != wire.MsgRequest && m.Type != wire.MsgReply) {
		return
	}
	t.mu.Lock()
	if len(t.sample) < maxFrames {
		t.sampled.Add(1)
		t.sample = append(t.sample, &wire.Message{
			Static: true, Type: m.Type, RequestID: m.RequestID, TargetRef: m.TargetRef,
			Method: m.Method, Oneway: m.Oneway, Deadline: m.Deadline, Status: m.Status,
			ErrMsg: m.ErrMsg, Body: append([]byte(nil), m.Body...),
		})
	}
	t.mu.Unlock()
}

// wrap installs the tracer on opts' protocol and transport seams.
func (t *tracer) wrap(opts orb.Options) orb.Options {
	p := &traceProto{Protocol: protocolOf(opts), t: t}
	opts.Protocol = p
	opts.Transport = &traceTransport{Transport: transport.NewTCP(p), t: t}
	return opts
}

// --- wire.Protocol seam ------------------------------------------------------

type traceProto struct {
	wire.Protocol
	t *tracer
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (p *traceProto) WriteMessage(w io.Writer, m *wire.Message) error {
	p.t.keep(m)
	cw := countingWriter{w: w}
	err := p.Protocol.WriteMessage(&cw, m)
	p.t.c[cBytesOut].Add(cw.n)
	return err
}

func (p *traceProto) AppendMessage(dst []byte, m *wire.Message) ([]byte, error) {
	p.t.keep(m)
	out, err := p.Protocol.AppendMessage(dst, m)
	p.t.c[cBytesOut].Add(int64(len(out) - len(dst)))
	return out, err
}

func (p *traceProto) ReadMessage(r *bufio.Reader) (*wire.Message, error) {
	m, err := p.Protocol.ReadMessage(r)
	if err == nil {
		p.t.keep(m)
	}
	return m, err
}

// --- transport seam ----------------------------------------------------------

type traceTransport struct {
	transport.Transport
	t *tracer
}

func (tt *traceTransport) Dial(addr string) (transport.Conn, error) {
	start := time.Now().UnixNano()
	c, err := tt.Transport.Dial(addr)
	tt.t.record(spDial, start, time.Now().UnixNano())
	if err != nil {
		return nil, err
	}
	tt.t.c[cDials].Add(1)
	return tt.t.conn(c, true), nil
}

func (tt *traceTransport) Listen(addr string) (transport.Listener, error) {
	l, err := tt.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: l, t: tt.t}, nil
}

type traceListener struct {
	transport.Listener
	t *tracer
}

func (l *traceListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.conn(c, false), nil
}

type traceConn struct {
	transport.Conn
	t      *tracer
	dialed bool
	closed atomic.Bool
}

// conn wraps c. Only the dialling end counts toward the open connections,
// so one connection is not counted once in each process.
func (t *tracer) conn(c transport.Conn, dialed bool) *traceConn {
	if dialed {
		t.c[cOpen].Add(1)
	}
	return &traceConn{Conn: c, t: t, dialed: dialed}
}

func (c *traceConn) wrote(frames, writes int) {
	c.t.c[cFrames].Add(int64(frames))
	c.t.c[cWrites].Add(int64(writes))
	if c.dialed {
		c.t.c[cDialFrames].Add(int64(frames))
		c.t.c[cDialWrites].Add(int64(writes))
	}
}

func (c *traceConn) Send(m *wire.Message) error {
	start := time.Now().UnixNano()
	err := c.Conn.Send(m)
	c.t.record(spSend, start, time.Now().UnixNano())
	c.wrote(1, 1)
	return err
}

// SendBatch forwards the gathered write when the inner connection has one —
// a wrapper that hid BatchSender would silently turn every batch back into
// one write per frame and measure a different program.
func (c *traceConn) SendBatch(ms []*wire.Message) error {
	if len(ms) == 0 {
		return nil
	}
	start := time.Now().UnixNano()
	var err error
	writes := 1
	if bs, ok := c.Conn.(transport.BatchSender); ok {
		err = bs.SendBatch(ms)
	} else {
		writes = len(ms)
		for _, m := range ms {
			if err = c.Conn.Send(m); err != nil {
				break
			}
		}
	}
	c.t.record(spSend, start, time.Now().UnixNano())
	c.wrote(len(ms), writes)
	return err
}

func (c *traceConn) Recv() (*wire.Message, error) {
	start := time.Now().UnixNano()
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	end := time.Now().UnixNano()
	c.t.record(spRecv, start, end)
	if m.Type == wire.MsgRequest {
		c.t.c[cReqRecvN].Add(1)
		c.t.c[cReqRecvAt].Add(end - c.t.epoch)
	}
	return m, nil
}

func (c *traceConn) Close() error {
	if !c.closed.Swap(true) && c.dialed {
		c.t.c[cOpen].Add(-1)
	}
	return c.Conn.Close()
}

// --- interceptor seams -------------------------------------------------------

func (t *tracer) clientInterceptor(_ *orb.ClientContext, invoke func() error) error {
	start := time.Now().UnixNano()
	err := invoke()
	t.record(spClientCall, start, time.Now().UnixNano())
	return err
}

func (t *tracer) serverInterceptor(_ *orb.ServerContext, handle func() error) error {
	start := time.Now().UnixNano()
	t.c[cDispatchN].Add(1)
	t.c[cDispatchAt].Add(start - t.epoch)
	err := handle()
	t.record(spServerDispatch, start, time.Now().UnixNano())
	return err
}
