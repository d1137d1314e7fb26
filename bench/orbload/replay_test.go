package main

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// wireMethods are the operations' names on the wire.
var wireMethods = [numOps]string{"ping", "_get_volume", "play", "list", "configure", "open", "prefetch", "frameReady"}

// The gen replay issues by hand the codec calls the generated media stubs
// and skeletons make, so that it can time the two directions apart. This
// holds the copy to the original: every request and reply body the real
// stubs and skeletons put on the wire in a traced run must be, byte for
// byte, what marshalArgs and marshalResult produce for the same operation,
// in both protocols. A change to the stub template that changes what goes
// through the codec fails here until the replay is edited in step.
func TestGenReplayMatchesTheGeneratedCode(t *testing.T) {
	in := newInputs(11)
	cat := catalogue()
	for _, base := range []string{"excl_text_small", "excl_cdr_marshal", "event_fanout"} {
		found, err := findWorkload(base)
		if err != nil {
			t.Fatal(err)
		}
		wl := *found // the server process looks its options up by the name, which stays
		if wl.callers > 0 {
			wl.callers = 1
			wl.mix = []opKind{opPing, opGetVolume, opPlay, opList, opConfigure, opOpen, opPrefetch}
		}
		// Set-up's warm-up is traced too: the sample is its first frames,
		// and a single caller's requests leave in the order it drew them.
		r, err := startRig(&wl, in, true)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		frames := r.tr.frameSample()
		if err := r.close(); err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		src := newOpSource(in.seed, phaseWarm.stream*1000, wl.mix)
		enc := protocolOf(wl.client).NewEncoder()
		asked := map[uint32]opKind{} // request id → operation, for the replies
		seen := map[opKind]int{}
		for _, m := range frames {
			enc.Reset()
			switch {
			case m.Type == wire.MsgRequest && m.Method == wireMethods[opFrameReady]:
				// Publishes and their deliveries (the same body, read back
				// by the consumers' ORB) interleave: take the sequence
				// number from the body itself.
				seq, err := decodeEvent(protocolOf(wl.client), m.Body)
				if err != nil {
					t.Fatalf("%s: the replay cannot unmarshal a frameReady body: %v", base, err)
				}
				marshalArgs(enc, in, opFrameReady, seq)
				if !bytes.Equal(enc.Bytes(), m.Body) {
					t.Errorf("%s: the publisher stub sent %q, the replay marshals %q", base, m.Body, enc.Bytes())
				}
				seen[opFrameReady]++
			case m.Type == wire.MsgRequest && wl.subscribers == 0:
				op, arg := src.next()
				if m.Method != wireMethods[op] {
					t.Fatalf("%s: request %d is %s, the caller drew %s", base, m.RequestID, m.Method, wireMethods[op])
				}
				marshalArgs(enc, in, op, arg)
				if !bytes.Equal(enc.Bytes(), m.Body) {
					t.Errorf("%s %s: the stub sent %q, the replay marshals %q", base, m.Method, m.Body, enc.Bytes())
				}
				asked[m.RequestID] = op
				seen[op]++
			case m.Type == wire.MsgReply && wl.subscribers == 0:
				op, ok := asked[m.RequestID]
				if !ok {
					t.Fatalf("%s: reply %d answers no recorded request", base, m.RequestID)
				}
				marshalResult(enc, cat, op)
				if !bytes.Equal(enc.Bytes(), m.Body) {
					t.Errorf("%s %s: the skeleton replied %q, the replay marshals %q", base, wireMethods[op], m.Body, enc.Bytes())
				}
				if err := unmarshalResult(protocolOf(wl.client).NewDecoder(m.Body), op); err != nil {
					t.Errorf("%s %s: the replay cannot unmarshal the skeleton's reply: %v", base, wireMethods[op], err)
				}
			}
		}
		for _, op := range wl.mix {
			if seen[op] == 0 {
				t.Errorf("%s: no %s frame among the %d recorded", base, wireMethods[op], len(frames))
			}
		}
	}
}

// decodeEvent reads a frameReady body the way unmarshalArgs does and returns
// its sequence number.
func decodeEvent(p wire.Protocol, body []byte) (uint32, error) {
	d := p.NewDecoder(body)
	if _, err := d.GetString(); err != nil {
		return 0, err
	}
	seq, err := d.GetLong()
	return uint32(seq), err
}
