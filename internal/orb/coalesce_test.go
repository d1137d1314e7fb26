package orb

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// --- coalesced write path ----------------------------------------------------

func coalesceConfigs() map[string]func() Options {
	mk := func(proto wire.Protocol) func() Options {
		return func() Options {
			return Options{
				Protocol:             proto,
				Multiplex:            true,
				MaxConcurrentPerConn: 16,
				CoalesceWrites:       true,
			}
		}
	}
	return map[string]func() Options{
		"coalesce-text": mk(wire.Text),
		"coalesce-cdr":  mk(wire.CDR),
	}
}

// TestCoalesceRemoteCallRoundTrip: the full stub surface works unchanged with
// write coalescing enabled on both sides (client mux sends, server replies).
func TestCoalesceRemoteCallRoundTrip(t *testing.T) {
	for name, mk := range coalesceConfigs() {
		t.Run(name, func(t *testing.T) {
			client, ref, _ := newServerClient(t, mk)
			obj, err := client.Resolve(ref)
			if err != nil {
				t.Fatal(err)
			}
			echo := obj.(Echo)

			if got, err := echo.Echo("coalesced"); err != nil || got != "coalesced" {
				t.Errorf("Echo = %q, %v", got, err)
			}
			if got, err := echo.Add(40, 2); err != nil || got != 42 {
				t.Errorf("Add = %d, %v", got, err)
			}
			if err := echo.Poke(); err != nil {
				t.Errorf("Poke (oneway): %v", err)
			}
			if err := echo.Fail("boom"); err == nil {
				t.Error("Fail did not surface the user exception")
			}

			// Concurrent callers through the coalescing writer: same
			// correctness, one shared connection.
			const callers, perCaller = 16, 50
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				go func(g int) {
					for i := 0; i < perCaller; i++ {
						a, b := int32(g), int32(i)
						got, err := echo.Add(a, b)
						if err != nil {
							errs <- err
							return
						}
						if got != a+b {
							errs <- &FailError{Why: "wrong sum"}
							return
						}
					}
					errs <- nil
				}(g)
			}
			for g := 0; g < callers; g++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if ms := client.MuxStats(); ms.Dials != 1 {
				t.Errorf("MuxStats.Dials = %d, want 1 shared connection", ms.Dials)
			}
		})
	}
}

// TestCoalesceTortureMidBatchKill is the satellite torture run: 32 callers —
// a mix of oneway pokes, idempotent echoes and plain (non-idempotent) echoes
// — hammer a coalescing client while the fault transport kills the shared
// connection mid-gathered-write. Every call must resolve with the PR-1
// classing: safe and ambiguous failures on oneway/idempotent calls retry to
// success; plain calls may fail (ambiguous outcomes are not retried for
// them) but must never hang or corrupt another caller's reply. Run under
// -race.
func TestCoalesceTortureMidBatchKill(t *testing.T) {
	inner := transport.NewInproc(wire.CDR)
	impl := &echoImpl{}
	server := New(Options{
		Protocol: wire.CDR, Transport: inner, ListenAddr: ":0",
		MaxConcurrentPerConn: 32,
		CoalesceWrites:       true,
	})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	ft := transport.NewFaultTransport(inner)
	var kills int32
	ft.Decide = func(info transport.FaultInfo) transport.FaultVerdict {
		if info.Op != transport.FaultSend {
			return transport.FaultPass
		}
		switch {
		case info.Global%101 == 0:
			atomic.AddInt32(&kills, 1)
			return transport.FaultDrop
		case info.Global%149 == 0:
			atomic.AddInt32(&kills, 1)
			return transport.FaultPartial
		}
		return transport.FaultPass
	}
	client := New(Options{
		Protocol: wire.CDR, Transport: ft,
		Multiplex:            true,
		CoalesceWrites:       true,
		Retry:                RetryPolicy{MaxAttempts: 8},
		CallTimeout:          10 * time.Second, // backstop: resolution, not correctness
		MaxConcurrentPerConn: 32,
	})
	defer client.Shutdown()

	const callers, perCaller = 32, 25
	type outcome struct {
		kind string
		err  error
	}
	results := make(chan outcome, callers*perCaller)
	done := make(chan struct{}, callers)
	for g := 0; g < callers; g++ {
		kind := "plain"
		switch {
		case g%4 == 0:
			kind = "oneway"
		case g%2 == 1:
			kind = "idempotent"
		}
		go func(g int, kind string) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perCaller; i++ {
				if kind == "oneway" {
					c, err := client.NewCall(ref, "poke")
					if err == nil {
						err = c.InvokeOneway()
						c.Release()
					}
					results <- outcome{kind, err}
					continue
				}
				c, err := client.NewCall(ref, "echo")
				if err != nil {
					results <- outcome{kind, err}
					continue
				}
				if kind == "idempotent" {
					c.SetIdempotent(true)
				}
				want := strings.Repeat("x", 64)
				c.PutString(want)
				err = c.Invoke()
				if err == nil {
					got, gerr := c.GetString()
					if gerr != nil {
						err = gerr
					} else if got != want {
						t.Errorf("caller %d: reply corrupted: got %d bytes %q...", g, len(got), got[:16])
					}
				}
				c.Release()
				results <- outcome{kind, err}
			}
		}(g, kind)
	}
	for g := 0; g < callers; g++ {
		<-done
	}
	close(results)

	counts := map[string][2]int{} // kind -> {ok, failed}
	var sample error
	for r := range results {
		c := counts[r.kind]
		if r.err == nil {
			c[0]++
		} else {
			c[1]++
			sample = r.err
		}
		counts[r.kind] = c
	}
	if atomic.LoadInt32(&kills) == 0 {
		t.Fatal("fault schedule never fired; the torture exercised nothing")
	}
	// Safe and ambiguous failures alike are retryable for oneway and
	// idempotent calls; with 8 attempts against a sparse kill schedule they
	// must all land.
	for _, kind := range []string{"oneway", "idempotent"} {
		if c := counts[kind]; c[1] != 0 {
			t.Errorf("%d of %d %s calls failed despite retries (e.g. %v)",
				c[1], c[0]+c[1], kind, sample)
		}
	}
	if c := counts["plain"]; c[0]+c[1] != 8*perCaller {
		t.Errorf("plain calls did not all resolve: %d outcomes", c[0]+c[1])
	}
	if r := client.Stats().Retries; r == 0 {
		t.Error("connection kills produced no retries")
	}
	t.Logf("%d kills, outcomes %v, %d retries (sample failure: %v)",
		kills, counts, client.Stats().Retries, sample)
}

// --- retry boundary x buffer leases ------------------------------------------

const slowEchoTypeID = "IDL:test/SlowEcho:1.0"

// TestRetryDoesNotObserveRecycledLease pins the buffer-lease lifetime at the
// retry boundary: the first attempt times out, its late reply is dropped by
// the demux reader and its lease recycled into the pool; the retried
// attempt's reply must keep its own lease alive until Release, so pool churn
// rewriting the first buffer cannot leak into this call's results. A naive
// implementation that frees the reply as soon as the decoder is primed (or
// hands back the first attempt's view) fails here: the churn below rewrites
// the recycled buffer with 'B's before the caller reads.
func TestRetryDoesNotObserveRecycledLease(t *testing.T) {
	inner := transport.NewInproc(wire.CDR)
	var calls int32
	table := NewMethodTable(slowEchoTypeID).Register("echo", func(c *ServerCall) error {
		s, err := c.GetString()
		if err != nil {
			return err
		}
		if atomic.AddInt32(&calls, 1) == 1 {
			time.Sleep(300 * time.Millisecond) // outlive the first attempt's timeout
		}
		c.PutString(s)
		return nil
	})
	server := New(Options{
		Protocol: wire.CDR, Transport: inner, ListenAddr: ":0",
		MaxConcurrentPerConn: 8,
	})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(&struct{ slow bool }{}, table)
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol: wire.CDR, Transport: inner,
		Multiplex:   true,
		CallTimeout: 60 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 5},
	})
	defer client.Shutdown()

	payload := strings.Repeat("A", 2048)
	c, err := client.NewCall(ref, "echo")
	if err != nil {
		t.Fatal(err)
	}
	c.SetIdempotent(true)
	c.PutString(payload)
	if err := c.Invoke(); err != nil {
		t.Fatal(err)
	}
	if client.Stats().Retries == 0 {
		t.Fatal("first attempt did not time out; the retry boundary was not exercised")
	}
	if c.reply == nil || !c.reply.Leased() {
		t.Fatal("reply body is not lease-backed; this test no longer exercises the boundary")
	}

	// Wait for the first attempt's late reply to be dropped — that is the
	// moment its lease goes back to the pool.
	waitFor(t, func() bool { return client.MuxStats().Late != 0 })

	// Churn: same-sized payloads of 'B's recycle through the lease pool,
	// rewriting the first attempt's buffer (and, under a naive lifetime,
	// the held reply's).
	junk := strings.Repeat("B", 2048)
	for i := 0; i < 64; i++ {
		c2, err := client.NewCall(ref, "echo")
		if err != nil {
			t.Fatal(err)
		}
		c2.PutString(junk)
		if err := c2.Invoke(); err != nil {
			t.Fatal(err)
		}
		if got, err := c2.GetString(); err != nil || got != junk {
			t.Fatalf("churn call %d: %q..., %v", i, got[:min(16, len(got))], err)
		}
		c2.Release()
	}

	// Only now does the original caller read its results: the view must
	// still be the retried attempt's bytes.
	got, err := c.GetString()
	if err != nil {
		t.Fatal(err)
	}
	if got != payload {
		t.Errorf("retried call observed a recycled body: got %d bytes starting %q",
			len(got), got[:min(16, len(got))])
	}
	c.Release()
}
