// Package transport provides the connection layer beneath HeidiRMI's
// ObjectCommunicator: framed, protocol-agnostic message channels over TCP
// (the paper's bootstrap-port model, Fig. 5) and over in-process pipes for
// deterministic tests, plus the connection cache of §3.1 ("Connections are
// cached and reused in HeidiRMI, and only if there is no available
// connection is a new connection opened").
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Conn is one framed message channel. Implementations must serialize
// concurrent Send calls internally (streamConn holds a send lock around each
// whole frame) — the server interleaves replies from concurrent dispatches
// on one connection, and MuxConn relies on whole-frame writes. Recv is
// single-consumer: only one goroutine may read (the pool hands each
// checked-out Conn to one caller at a time; the mux and server sides each
// read from a single dedicated goroutine).
type Conn interface {
	// Send writes one message.
	Send(m *wire.Message) error
	// Recv reads the next message, returning wire.ErrClosed after a
	// clean shutdown.
	Recv() (*wire.Message, error)
	// SetDeadline bounds subsequent Send and Recv calls; the zero time
	// removes the bound. Expired deadlines surface as I/O errors.
	SetDeadline(t time.Time) error
	// Close tears the channel down.
	Close() error
	// RemoteAddr describes the peer for diagnostics.
	RemoteAddr() string
}

// Listener accepts inbound connections on a bootstrap endpoint.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the bound endpoint ("127.0.0.1:4321" or an inproc
	// name), suitable for embedding in object references.
	Addr() string
}

// Transport creates listeners and outbound connections for one scheme.
type Transport interface {
	// Name is the scheme used in object references ("tcp", "inproc").
	Name() string
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ErrListenerClosed is returned by Accept after Close.
var ErrListenerClosed = errors.New("transport: listener closed")

// BatchSender is implemented by Conns that can emit several frames as one
// gathered write. SendBatch is atomic with respect to concurrent Send calls
// (no frame interleaving) and is the primitive the Coalescer builds on: on
// TCP it collapses N frames into a single writev syscall.
type BatchSender interface {
	SendBatch(ms []*wire.Message) error
}

// streamConn frames messages over any io stream with a wire.Protocol.
type streamConn struct {
	nc     net.Conn
	r      *bufio.Reader
	proto  wire.Protocol
	sendMu sync.Mutex

	// Gathered-write scratch, guarded by sendMu: per-frame encode buffers
	// (capacity reused across batches) and the iovec slice handed to writev.
	frames [][]byte
	segs   net.Buffers
}

// readerPool recycles per-connection read buffers: a connection-churn
// workload (cache ablation, pool eviction, mux redials) otherwise pays a
// fresh 4 KiB bufio allocation per dial.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// NewStreamConn wraps a net.Conn (TCP socket, net.Pipe end, ...) into a
// Conn framing messages with proto.
func NewStreamConn(nc net.Conn, proto wire.Protocol) Conn {
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(nc)
	return &streamConn{nc: nc, r: r, proto: proto}
}

func (c *streamConn) Send(m *wire.Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.proto.WriteMessage(c.nc, m)
}

// maxRetainedFrame bounds the capacity of per-conn batch encode buffers kept
// across batches (same bound as the wire frame pool).
const maxRetainedFrame = 64 << 10

// SendBatch implements BatchSender: each message is encoded into its own
// retained buffer and the set is written with net.Buffers, which on TCP is a
// single writev. On non-TCP streams (net.Pipe) net.Buffers degrades to
// sequential writes, preserving semantics if not the syscall win.
func (c *streamConn) SendBatch(ms []*wire.Message) error {
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return c.Send(ms[0])
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	segs := c.segs[:0]
	for i, m := range ms {
		if i == len(c.frames) {
			c.frames = append(c.frames, nil)
		}
		b, err := c.proto.AppendMessage(c.frames[i][:0], m)
		if err != nil {
			return err
		}
		c.frames[i] = b
		segs = append(segs, b)
	}
	// WriteTo consumes its receiver: it gets the conn's own header (a local
	// escapes through the interface); segs keeps the array for the next batch.
	c.segs = segs
	_, err := c.segs.WriteTo(c.nc)
	// Drop any oversized encode buffers so one huge payload is not pinned.
	c.segs = segs[:0]
	for i := range c.frames {
		if cap(c.frames[i]) > maxRetainedFrame {
			c.frames[i] = nil
		}
	}
	return err
}

func (c *streamConn) Recv() (*wire.Message, error) {
	if c.r == nil {
		return nil, wire.ErrClosed
	}
	m, err := c.proto.ReadMessage(c.r)
	if err != nil {
		if errors.Is(err, wire.ErrClosed) {
			// Clean shutdown: the single Recv consumer owns the buffer at
			// this point, so it can go back to the pool for the next dial.
			// Close never recycles — it may race a blocked Recv.
			c.recycleReader()
		}
		return nil, err
	}
	if m.Type == wire.MsgClose {
		wire.FreeMessage(m)
		c.recycleReader()
		return nil, wire.ErrClosed
	}
	return m, nil
}

// recycleReader returns the read buffer to the pool; later Recv calls
// report a closed connection.
func (c *streamConn) recycleReader() {
	r := c.r
	c.r = nil
	r.Reset(nil) // drop the net.Conn reference while pooled
	readerPool.Put(r)
}

func (c *streamConn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

func (c *streamConn) Close() error { return c.nc.Close() }

func (c *streamConn) RemoteAddr() string {
	if a := c.nc.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// TCP is the production transport: a TCP listener per address space (the
// bootstrap port) and plain TCP dials, framed with the given protocol.
type TCP struct {
	Proto wire.Protocol
}

// NewTCP returns a TCP transport framing messages with proto.
func NewTCP(proto wire.Protocol) *TCP { return &TCP{Proto: proto} }

// Name implements Transport.
func (t *TCP) Name() string { return "tcp" }

// Listen implements Transport. Use addr ":0" for an ephemeral port.
func (t *TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl, proto: t.Proto}, nil
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewStreamConn(nc, t.Proto), nil
}

type tcpListener struct {
	nl    net.Listener
	proto wire.Protocol
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrListenerClosed
		}
		return nil, err
	}
	return NewStreamConn(nc, l.proto), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// Inproc is an in-process transport: listeners register under names in a
// shared namespace and dials create net.Pipe pairs, so the full protocol
// encode/decode path is exercised without sockets.
type Inproc struct {
	Proto wire.Protocol

	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

// NewInproc returns an empty in-process namespace.
func NewInproc(proto wire.Protocol) *Inproc {
	return &Inproc{Proto: proto, listeners: make(map[string]*inprocListener)}
}

// Name implements Transport.
func (t *Inproc) Name() string { return "inproc" }

// Listen implements Transport. An empty or ":0" address allocates a fresh
// name.
func (t *Inproc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" || addr == ":0" {
		t.nextAuto++
		addr = fmt.Sprintf("ep%d", t.nextAuto)
	}
	if _, dup := t.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: inproc address %q in use", addr)
	}
	l := &inprocListener{
		owner: t,
		addr:  addr,
		ch:    make(chan Conn, 8),
		done:  make(chan struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *Inproc) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc listener at %q", addr)
	}
	client, server := net.Pipe()
	sc := NewStreamConn(server, t.Proto)
	select {
	case l.ch <- sc:
		return NewStreamConn(client, t.Proto), nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, ErrListenerClosed
	}
}

type inprocListener struct {
	owner *Inproc
	addr  string
	ch    chan Conn
	done  chan struct{}
	once  sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.owner.mu.Lock()
		delete(l.owner.listeners, l.addr)
		l.owner.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }
