package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/gen/media"
	"repro/internal/heidi"
	"repro/internal/orb"
	"repro/internal/wire"
)

// opKind names one operation of the Media IDL the benchmark drives.
type opKind uint8

const (
	opPing opKind = iota
	opGetVolume
	opPlay
	opList
	opConfigure
	opOpen
	opPrefetch
	opFrameReady
	numOps
)

var opNames = [numOps]string{"ping", "get_volume", "play", "list", "configure", "open", "prefetch", "frameReady"}

// workload is one traffic shape. The server process is told only the
// workload's name (to pick its Options); every argument it sees arrives on
// the wire, generated from the seed by the driver.
type workload struct {
	name string
	why  string
	// callers > 0 is a closed loop: that many goroutines each issue their
	// next call when the previous one returned. callers == 0 is an open
	// loop: every period, burst operations fall due at once whether or not
	// the previous burst has completed.
	callers int
	period  time.Duration
	burst   int
	// subscribers > 0 makes the operations frameReady publishes fanned out
	// by a channel in the server process to that many consumers exported
	// on one ORB in the driver process; an operation is then one delivery.
	subscribers int
	mix         []opKind
	client      orb.Options
	server      orb.Options
}

// sloLimit is the open-loop latency limit, due time to completion.
const sloLimit = 2 * time.Millisecond

var smallMix = []opKind{opPing, opGetVolume, opPlay}

// muxMix is the small-call mix with one oneway prefetch in eight.
var muxMix = []opKind{opPing, opGetVolume, opPlay, opPing, opGetVolume, opPlay, opGetVolume, opPrefetch}

var (
	muxClient = orb.Options{Protocol: wire.CDR, Multiplex: true, CoalesceWrites: true, Negotiate: true}
	muxServer = orb.Options{Protocol: wire.CDR, MaxConcurrentPerConn: 32, CoalesceWrites: true}
)

// procs is GOMAXPROCS for both processes and the cap on client connections.
func procs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func workloads() []*workload {
	return []*workload{
		{
			name:    "excl_text_small",
			why:     "1 caller, text protocol, exclusive pool, smallest messages: fixed per-call cost (handoffs, syscalls, checkout) is everything",
			callers: 1,
			mix:     smallMix,
		},
		{
			name:    "excl_cdr_marshal",
			why:     "2 callers on 2 pooled conns, CDR: 64-struct list reply, incopy struct configure, 1 KiB open raising NoSuchStream; gen and wire do the work",
			callers: procs(),
			mix:     []opKind{opList, opConfigure, opOpen},
			client:  orb.Options{Protocol: wire.CDR},
			server:  orb.Options{Protocol: wire.CDR},
		},
		{
			name:    "mux_pipelined",
			why:     "16 callers multiplexed on one coalescing negotiated conn, 1-in-8 oneway: saturates MuxPool, Coalescer and server workers; batches form",
			callers: 16,
			mix:     muxMix,
			client:  muxClient,
			server:  muxServer,
		},
		{
			name:   "mux_burst_open",
			why:    "same conn, open loop: 32 calls due every 10 ms (3200/s), idle-burst-idle, so lingering or queue-skipping coalescer changes cost here",
			period: 10 * time.Millisecond,
			burst:  32,
			mix:    muxMix,
			client: muxClient,
			server: muxServer,
		},
		{
			name:        "event_fanout",
			why:         "server-push: 16 frameReady events every 10 ms through a broker channel to 8 consumers on one conn; request/reply changes must leave it flat",
			period:      10 * time.Millisecond,
			burst:       16,
			subscribers: 8,
			mix:         []opKind{opFrameReady},
			client:      orb.Options{Protocol: wire.CDR},
			server:      orb.Options{Protocol: wire.CDR},
		},
	}
}

// protocolOf is the wire protocol an ORB built from o speaks: the zero
// Options mean the paper's text protocol.
func protocolOf(o orb.Options) wire.Protocol {
	if o.Protocol == nil {
		return wire.Text
	}
	return o.Protocol
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// --- fixed servant state, known to both processes ----------------------------

const (
	catalogueSize = 64
	servedVolume  = 37
	channelName   = "playback"
)

// catalogue is the servant's fixed stream list. It is built from the index
// alone so the driver can check a list reply without asking the server.
func catalogue() media.HdStreamInfoSeq {
	out := make(media.HdStreamInfoSeq, catalogueSize)
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

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// infoSum folds one StreamInfo into a number; sums of it are order-free, so
// callers and servant workers can add concurrently and still agree.
func infoSum(v *media.HdStreamInfo) uint64 {
	s := hashString(v.Name)*31 + uint64(uint32(v.BitrateKbps))*7 + uint64(v.FrameRate*1000)
	if v.HasAudio {
		s++
	}
	return s
}

func seqSum(l media.HdStreamInfoSeq) uint64 {
	var s uint64
	for i, v := range l {
		if v == nil {
			return 0
		}
		s += infoSum(v) * uint64(i+1)
	}
	return s
}

// --- seeded inputs -----------------------------------------------------------

// inputs holds every payload a run sends, generated from the seed before
// the clock starts so the measured window does no string building.
type inputs struct {
	seed     int64
	names    []string              // catalogue names, for play/prefetch
	bigNames []string              // 1 KiB names no catalogue has, for open
	infos    []*media.HdStreamInfo // configure arguments
	infoSums []uint64
	listSum  uint64
}

func newInputs(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	cat := catalogue()
	in.listSum = seqSum(cat)
	for _, c := range cat {
		in.names = append(in.names, c.Name)
	}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < 16; i++ {
		b := make([]byte, 1024)
		for j := range b {
			b[j] = letters[r.Intn(len(letters))]
		}
		in.bigNames = append(in.bigNames, string(b))
	}
	for i := 0; i < 256; i++ {
		v := &media.HdStreamInfo{
			Name:        fmt.Sprintf("cfg-%d-%08x.mpg", i, r.Uint32()),
			BitrateKbps: int32(r.Intn(20000)),
			FrameRate:   float64(r.Intn(12000)) / 100,
			HasAudio:    heidi.XBool(r.Intn(2) == 0),
		}
		in.infos = append(in.infos, v)
		in.infoSums = append(in.infoSums, infoSum(v))
	}
	return in
}

// job is one operation to issue: what, with which argument, and when it
// fell due (closed loops stamp the moment they issue it).
type job struct {
	op  opKind
	arg uint32
	due time.Time
}

// opSource draws the operation sequence for one caller (closed loop) or for
// the generator (open loop) from the seed.
type opSource struct {
	r   *rand.Rand
	mix []opKind
}

func newOpSource(seed int64, stream int, mix []opKind) *opSource {
	return &opSource{r: rand.New(rand.NewSource(seed*1009 + int64(stream))), mix: mix}
}

func (s *opSource) next() (opKind, uint32) {
	return s.mix[s.r.Intn(len(s.mix))], s.r.Uint32()
}
