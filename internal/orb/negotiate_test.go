package orb

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// Protocol negotiation end to end (ISSUE 7): a negotiating client converges
// with every server build — full-featured, partially-featured, and legacy —
// over both codecs, and calls round-trip on the agreed terms.

// TestNegotiationMatrix drives {text,CDR} x {coalesce on/off} x {deadline
// on/off} x {legacy peer} through a negotiating, multiplexing client. For
// feature-aware servers the settled terms must be exactly the intersection
// of the two offers; a legacy peer must settle as Legacy (static
// configuration) after the fallback redial. Calls must succeed in every
// cell.
func TestNegotiationMatrix(t *testing.T) {
	protos := []wire.Protocol{wire.Text, wire.CDR}
	for _, proto := range protos {
		for _, coalesce := range []bool{true, false} {
			for _, deadline := range []bool{true, false} {
				for _, legacy := range []bool{false, true} {
					proto, coalesce, deadline, legacy := proto, coalesce, deadline, legacy
					name := fmt.Sprintf("%s/coalesce=%t/deadline=%t/legacy=%t", proto.Name(), coalesce, deadline, legacy)
					t.Run(name, func(t *testing.T) {
						var serverFeats wire.Feature
						if coalesce {
							serverFeats |= wire.FeatureCoalesce
						}
						if deadline {
							serverFeats |= wire.FeatureDeadline
						}
						if serverFeats == 0 {
							// offerFeatures' zero value means "default
							// set"; a server offering neither tested feature
							// advertises only one the client does not
							// implement.
							serverFeats = wire.FeatureCompactV3
						}
						impl := &echoImpl{}
						// The server never sets Negotiate: answering hellos
						// is unconditional, only dialing is opt-in. This
						// whole matrix doubles as the mixed-configuration
						// interop check.
						server := New(Options{Protocol: proto})
						server.offerFeatures = serverFeats
						server.legacyWire = legacy
						if err := server.Start(); err != nil {
							t.Fatal(err)
						}
						defer server.Shutdown()
						ref, err := server.Export(impl, NewEchoTable(impl))
						if err != nil {
							t.Fatal(err)
						}

						client := New(Options{
							Protocol:       proto,
							Negotiate:      true,
							Multiplex:      true,
							CoalesceWrites: true,
							CallTimeout:    5 * time.Second,
						})
						registerEchoStub(client)
						defer client.Shutdown()

						obj, err := client.Resolve(ref)
						if err != nil {
							t.Fatal(err)
						}
						echo := obj.(Echo)
						if got, err := echo.Echo("negotiated"); err != nil || got != "negotiated" {
							t.Fatalf("Echo = %q, %v", got, err)
						}
						if got, err := echo.Add(20, 22); err != nil || got != 42 {
							t.Fatalf("Add = %d, %v", got, err)
						}

						mc, err := client.mux.Get(ref.Addr)
						if err != nil {
							t.Fatal(err)
						}
						neg, ok := mc.Negotiated()
						if !ok {
							t.Fatal("shared connection carries no negotiation terms")
						}
						if legacy {
							if !neg.Legacy {
								t.Fatalf("terms = %+v, want Legacy after fallback", neg)
							}
							return
						}
						if neg.Legacy {
							t.Fatalf("feature-aware peer settled Legacy: %+v", neg)
						}
						want := serverFeats & (wire.FeatureCoalesce | wire.FeatureDeadline)
						if neg.Features != want {
							t.Errorf("settled features = %v, want %v (intersection)", neg.Features, want)
						}
						if neg.Version != wire.HelloVersion {
							t.Errorf("settled version = %d, want %d", neg.Version, wire.HelloVersion)
						}
						if neg.Codec != proto.Name() {
							t.Errorf("settled codec = %q, want %q", neg.Codec, proto.Name())
						}
					})
				}
			}
		}
	}
}

// TestNegotiateExclusivePath: negotiation also rides the exclusive
// (non-multiplexed) pool, including the legacy fallback.
func TestNegotiateExclusivePath(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		legacy := legacy
		t.Run(fmt.Sprintf("legacy=%t", legacy), func(t *testing.T) {
			impl := &echoImpl{}
			server := New(Options{Protocol: wire.CDR})
			server.legacyWire = legacy
			if err := server.Start(); err != nil {
				t.Fatal(err)
			}
			defer server.Shutdown()
			ref, err := server.Export(impl, NewEchoTable(impl))
			if err != nil {
				t.Fatal(err)
			}
			client := New(Options{
				Protocol:    wire.CDR,
				Negotiate:   true,
				CallTimeout: 5 * time.Second,
			})
			registerEchoStub(client)
			defer client.Shutdown()
			obj, err := client.Resolve(ref)
			if err != nil {
				t.Fatal(err)
			}
			// Two calls: the second reuses the cached (already negotiated
			// or already fallen-back) connection.
			for i := 0; i < 2; i++ {
				if got, err := obj.(Echo).Echo("x"); err != nil || got != "x" {
					t.Fatalf("call %d: Echo = %q, %v", i, got, err)
				}
			}
		})
	}
}

// TestNegotiateOffIsSeedBehavior: with the knob off no hello is ever sent —
// a legacy server that would kill a negotiating dialer serves a plain one.
func TestNegotiateOffIsSeedBehavior(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.Text})
	server.legacyWire = true // would drop any hello on the floor
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Protocol: wire.Text})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := obj.(Echo).Echo("plain"); err != nil || got != "plain" {
		t.Fatalf("Echo = %q, %v", got, err)
	}
}

// TestOversizedHelloAnsweredMalformed: every started ORB answers hellos
// before admission, so a max-size "HRMI/1 codecs=,,,…" hello is a request
// anyone can send. In both codecs it must get the malformed-offer answer
// (no features, no codecs), and what the server allocates for it must stay
// what reading the frame costs — about 1× in CDR, about 6× in text, whose
// line reader grows its buffer by append — rather than adding the parser's
// old ~17× amplification on top. The frame is encoded up front and written
// raw, so the measurement is the server's side alone.
func TestOversizedHelloAnsweredMalformed(t *testing.T) {
	hello := &wire.Message{Type: wire.MsgHello, Static: true,
		Body: []byte("HRMI/1 feat=7 codecs=" + strings.Repeat(",", wire.MaxBodyLen-64))}
	readCost := map[string]uint64{"text": 8, "cdr": 2} // allowed bytes per frame byte
	for _, proto := range []wire.Protocol{wire.Text, wire.CDR} {
		t.Run(proto.Name(), func(t *testing.T) {
			server := New(Options{Protocol: proto})
			if err := server.Start(); err != nil {
				t.Fatal(err)
			}
			defer server.Shutdown()
			frame, err := proto.AppendMessage(nil, hello)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", server.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sent := make(chan error, 1)
			go func() { _, err := conn.Write(frame); sent <- err }()
			reply, err := proto.ReadMessage(bufio.NewReader(conn))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer wire.FreeMessage(reply)
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if reply.Type != wire.MsgHello {
				t.Fatalf("answer type %s, want hello", reply.Type)
			}
			ans, err := wire.ParseHello(reply.Body)
			if err != nil || ans.Features != 0 || len(ans.Codecs) != 0 {
				t.Fatalf("answer %+v, %v; want the empty-feature answer to a malformed offer", ans, err)
			}
			n := after.TotalAlloc - before.TotalAlloc
			t.Logf("a %d-byte hello cost %d bytes of allocation (%.1fx)", len(frame), n, float64(n)/float64(len(frame)))
			if limit := readCost[proto.Name()] * uint64(len(frame)); n > limit {
				t.Errorf("a %d-byte hello cost %d bytes of allocation, want <= %d", len(frame), n, limit)
			}
		})
	}
}
