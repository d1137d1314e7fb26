package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func testTransports(t *testing.T) map[string]Transport {
	t.Helper()
	return map[string]Transport{
		"tcp-text":    NewTCP(wire.Text),
		"tcp-cdr":     NewTCP(wire.CDR),
		"inproc-text": NewInproc(wire.Text),
		"inproc-cdr":  NewInproc(wire.CDR),
	}
}

func TestConnRequestReply(t *testing.T) {
	for name, tr := range testTransports(t) {
		t.Run(name, func(t *testing.T) {
			l, err := tr.Listen(listenAddr(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			done := make(chan error, 1)
			go func() {
				sc, err := l.Accept()
				if err != nil {
					done <- err
					return
				}
				defer sc.Close()
				m, err := sc.Recv()
				if err != nil {
					done <- err
					return
				}
				if m.Method != "ping" {
					done <- errors.New("wrong method " + m.Method)
					return
				}
				done <- sc.Send(&wire.Message{Type: wire.MsgReply, RequestID: m.RequestID, Status: wire.StatusOK})
			}()

			c, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Send(&wire.Message{
				Type: wire.MsgRequest, RequestID: 7,
				TargetRef: "@x#1#IDL:T:1.0", Method: "ping",
			})
			if err != nil {
				t.Fatal(err)
			}
			reply, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if reply.RequestID != 7 || reply.Status != wire.StatusOK {
				t.Errorf("reply = %+v", reply)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func listenAddr(tr Transport) string {
	if tr.Name() == "tcp" {
		return "127.0.0.1:0"
	}
	return ""
}

func TestCloseMessageEndsRecv(t *testing.T) {
	tr := NewInproc(wire.Text)
	l, _ := tr.Listen("svc")
	defer l.Close()
	go func() {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		sc.Send(&wire.Message{Type: wire.MsgClose})
	}()
	c, err := tr.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); !errors.Is(err, wire.ErrClosed) {
		t.Errorf("Recv after close = %v, want wire.ErrClosed", err)
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	tr := NewTCP(wire.CDR)
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		sc.Close() // abrupt close: client sees ErrClosed (clean EOF)
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); !errors.Is(err, wire.ErrClosed) {
		t.Errorf("Recv = %v, want wire.ErrClosed", err)
	}
}

// TestSendBatchAllocatesNothing: once a conn's encode buffers and iovec array
// have grown, a gathered write of 8 frames over loopback TCP allocates
// nothing. The net.Buffers header WriteTo consumes is the conn's own field; a
// local copy would escape to the heap through the io.Writer call.
func TestSendBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the code's own")
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	drained := make(chan struct{})
	go func() { // drain the peer, allocation-free, so writes never block
		defer close(drained)
		nc, err := nl.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := NewTCP(wire.CDR).Dial(nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close(); <-drained }()
	batch := make([]*wire.Message, 8)
	for i := range batch {
		batch[i] = &wire.Message{Type: wire.MsgRequest, RequestID: uint32(i), Static: true,
			TargetRef: "@tcp:127.0.0.1:1#1#IDL:Media/Session:1.0", Method: "frameReady", Body: make([]byte, 24)}
	}
	send := func() {
		if err := c.(BatchSender).SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send() // grow the encode buffers and the iovec array
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("an 8-frame batch costs %v allocs, want 0", n)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for name, tr := range testTransports(t) {
		t.Run(name, func(t *testing.T) {
			l, err := tr.Listen(listenAddr(tr))
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond)
			l.Close()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrListenerClosed) {
					t.Errorf("Accept after Close = %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Accept did not unblock after Close")
			}
		})
	}
}

func TestInprocDialUnknown(t *testing.T) {
	tr := NewInproc(wire.Text)
	if _, err := tr.Dial("nowhere"); err == nil {
		t.Error("dial to unknown inproc address should fail")
	}
}

func TestInprocDuplicateListen(t *testing.T) {
	tr := NewInproc(wire.Text)
	l, err := tr.Listen("same")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := tr.Listen("same"); err == nil {
		t.Error("duplicate inproc listen should fail")
	}
	// After closing, the name is reusable.
	l.Close()
	l2, err := tr.Listen("same")
	if err != nil {
		t.Errorf("relisten after close: %v", err)
	} else {
		l2.Close()
	}
}

// echoServer accepts connections and replies OK to every request, counting
// distinct connections.
type echoServer struct {
	l     Listener
	conns int
	mu    sync.Mutex
	wg    sync.WaitGroup
}

func startEcho(t *testing.T, tr Transport) *echoServer {
	t.Helper()
	l, err := tr.Listen(listenAddr(tr))
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{l: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(&wire.Message{Type: wire.MsgReply, RequestID: m.RequestID, Status: wire.StatusOK})
				}
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		s.wg.Wait()
	})
	return s
}

func (s *echoServer) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

func call(t *testing.T, p *Pool, addr string, id uint32) {
	t.Helper()
	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Send(&wire.Message{Type: wire.MsgRequest, RequestID: id, TargetRef: "@x#1#t", Method: "m"})
	if err != nil {
		p.Put(addr, c, false)
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		p.Put(addr, c, false)
		t.Fatal(err)
	}
	p.Put(addr, c, true)
}

// TestPoolReuse verifies the §3.1 caching behaviour: sequential calls share
// one connection; with caching disabled every call dials anew.
func TestPoolReuse(t *testing.T) {
	tr := NewTCP(wire.Text)
	s := startEcho(t, tr)
	addr := s.l.Addr()

	p := NewPool(tr)
	defer p.Close()
	for i := uint32(1); i <= 5; i++ {
		call(t, p, addr, i)
	}
	if got := s.connCount(); got != 1 {
		t.Errorf("cached pool opened %d connections, want 1", got)
	}
	st := p.Stats()
	if st.Dials != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 1 dial, 4 hits", st)
	}

	// Ablation: disabled pool dials per call.
	p2 := NewPool(tr)
	p2.Disabled = true
	defer p2.Close()
	before := s.connCount()
	for i := uint32(1); i <= 5; i++ {
		call(t, p2, addr, i)
	}
	if got := s.connCount() - before; got != 5 {
		t.Errorf("disabled pool opened %d connections, want 5", got)
	}
}

func TestPoolConcurrentCheckout(t *testing.T) {
	tr := NewTCP(wire.CDR)
	s := startEcho(t, tr)
	addr := s.l.Addr()

	p := NewPool(tr)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c, err := p.Get(addr)
				if err != nil {
					t.Error(err)
					return
				}
				id := uint32(g*100 + i)
				if err := c.Send(&wire.Message{Type: wire.MsgRequest, RequestID: id, TargetRef: "@x#1#t", Method: "m"}); err != nil {
					p.Put(addr, c, false)
					t.Error(err)
					return
				}
				m, err := c.Recv()
				if err != nil {
					p.Put(addr, c, false)
					t.Error(err)
					return
				}
				if m.RequestID != id {
					t.Errorf("cross-talk: got reply %d for request %d", m.RequestID, id)
				}
				p.Put(addr, c, true)
			}
		}(g)
	}
	wg.Wait()
	if got := s.connCount(); got > 8 {
		t.Errorf("concurrent pool opened %d connections for 8 workers", got)
	}
}

func TestPoolUnhealthyDiscard(t *testing.T) {
	tr := NewTCP(wire.Text)
	s := startEcho(t, tr)
	addr := s.l.Addr()
	p := NewPool(tr)
	defer p.Close()

	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(addr, c, false) // discarded
	c2, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(addr, c2, true)
	if st := p.Stats(); st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (unhealthy conn not reused)", st.Dials)
	}
}

func TestPoolIdleCap(t *testing.T) {
	p, _, dialed := fakePool()
	defer p.Close()
	const addr = "ep"

	var conns []Conn
	for i := 0; i < DefaultMaxIdlePerHost+2; i++ {
		c, err := p.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		p.Put(addr, c, true)
	}
	p.mu.Lock()
	idle := len(p.idle[addr])
	p.mu.Unlock()
	if idle != DefaultMaxIdlePerHost {
		t.Errorf("idle = %d, want cap %d", idle, DefaultMaxIdlePerHost)
	}
	for i, c := range *dialed {
		if want := i >= DefaultMaxIdlePerHost; c.isClosed() != want {
			t.Errorf("conn %d closed = %t, want %t (excess returns close)", i, c.isClosed(), want)
		}
	}
}

func TestPoolClosed(t *testing.T) {
	tr := NewTCP(wire.Text)
	p := NewPool(tr)
	p.Close()
	if _, err := p.Get("127.0.0.1:1"); err == nil {
		t.Error("Get on closed pool should fail")
	}
}
