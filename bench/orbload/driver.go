package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen/media"
	"repro/internal/heidi"
	"repro/internal/orb"
	"repro/internal/wire"
)

// rig is one live pairing of the load-generating driver with a freshly
// spawned server process, for one workload.
type rig struct {
	wl *workload
	in *inputs

	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	hello serverHello

	tr     *tracer // the driver process's, nil untraced
	client *orb.ORB
	sess   media.HdSession

	// Event workloads: the consumers live on subHost, an ORB serving in this
	// process; client carries the publisher's one connection.
	subHost   *orb.ORB
	pub       *media.HdPlaybackPublisher
	consumers []*consumer
	phase     atomic.Pointer[eventPhase]
	nextSeq   int32
	published atomic.Int32 // seq+1 of the latest event handed to the publisher stub

	// What this rig has sent since it started, over every phase.
	total sentTally
}

// startRig spawns the server, connects, and warms the path up with a fixed
// number of operations: everything a user waits for before the first useful
// call. How long that took is the caller's setup_s sample.
func startRig(wl *workload, in *inputs, traced bool) (*rig, error) {
	r := &rig{wl: wl, in: in}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-role=server", "-workload=" + wl.name}
	if traced {
		args = append(args, "-traced")
	}
	r.cmd = exec.Command(exe, args...)
	r.cmd.Stderr = os.Stderr
	if r.stdin, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning server: %w", err)
	}
	r.out = bufio.NewReaderSize(stdout, 1<<16)
	if err := r.readLine(&r.hello); err != nil {
		r.close()
		return nil, fmt.Errorf("server did not come up: %w", err)
	}
	if err := r.connect(traced); err != nil {
		r.close()
		return nil, err
	}
	if err := r.warmUp(); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *rig) readLine(into any) error {
	line, err := r.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, into)
}

func (r *rig) ask(cmd string, into any) error {
	if _, err := io.WriteString(r.stdin, cmd+"\n"); err != nil {
		return err
	}
	return r.readLine(into)
}

func (r *rig) serverSnap() (serverSnap, error) {
	var s serverSnap
	err := r.ask("snap", &s)
	return s, err
}

func (r *rig) connect(traced bool) error {
	registerValues.Do(media.RegisterMediaValues)
	opts := r.wl.client
	if traced {
		r.tr = newTracer()
		opts = r.tr.wrap(opts)
	}
	r.client = orb.New(opts)
	media.RegisterMediaStubs(r.client)
	if traced {
		r.client.AddClientInterceptor(r.tr.clientInterceptor)
	}
	if r.wl.subscribers == 0 {
		ref, err := orb.ParseRef(r.hello.Ref)
		if err != nil {
			return err
		}
		obj, err := r.client.Resolve(ref)
		if err != nil {
			return err
		}
		r.sess = obj.(media.HdSession)
		return nil
	}
	// The subscriber host shares the tracer (one per process) but is its
	// own ORB: the broker dials it back, one connection for all consumers.
	r.subHost = orb.New(opts)
	if err := r.subHost.Start(); err != nil {
		return err
	}
	if traced {
		r.subHost.AddServerInterceptor(r.tr.serverInterceptor)
	}
	for i := 0; i < r.wl.subscribers; i++ {
		c := &consumer{phase: &r.phase, sent: &r.published, t: r.tr}
		ref, err := r.subHost.Export(c, media.NewHdPlaybackConsumerTable(c))
		if err != nil {
			return err
		}
		if _, err := r.subHost.Subscribe(r.hello.Chan, ref.String(), orb.SubscribeOptions{QueueDepth: eventQueueDepth}); err != nil {
			return err
		}
		r.consumers = append(r.consumers, c)
	}
	var err error
	r.pub, err = media.NewHdPlaybackPublisher(r.client, r.hello.Chan)
	return err
}

// close stops the server process and waits until it has ended; safe on a
// half-built rig. The server leaves on "quit" or, failing that, on the end
// of its input; one that does neither within five seconds is killed.
func (r *rig) close() error {
	if r.client != nil {
		r.client.Shutdown()
	}
	if r.subHost != nil {
		r.subHost.Shutdown()
	}
	_, _ = io.WriteString(r.stdin, "quit\n") // a server already gone is what the Wait below reports
	r.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- r.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		_ = r.cmd.Process.Kill() // already gone is fine
		err = fmt.Errorf("killed after ignoring quit: %v", <-done)
	}
	if err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	return nil
}

// --- issuing operations ------------------------------------------------------

// do issues one operation, checks the reply, and records its latency from
// the job's due time.
func (r *rig) do(j job, st *loadStats) {
	st.lock()
	st.sent[j.op]++
	r.tallyArgs(j.op, j.arg, &st.sentTally)
	st.unlock()
	ok := r.call(j.op, j.arg)
	now := time.Now()
	st.lock()
	defer st.unlock()
	sl := st.slices.at(now)
	if !ok {
		sl.failed++
		return
	}
	lat := now.Sub(j.due)
	sl.complete(now, lat)
	if st.perOp[j.op] == nil {
		st.perOp[j.op] = new(hist)
	}
	st.perOp[j.op].record(int64(lat))
}

// tallyArgs folds the arguments op is about to send into t, the way the
// servant folds the ones it receives.
func (r *rig) tallyArgs(op opKind, arg uint32, t *sentTally) {
	switch op {
	case opConfigure:
		t.cfgSum += r.in.infoSums[int(arg)%len(r.in.infos)]
		if arg&1 == 0 {
			t.cfgSum++
		}
	case opPrefetch:
		t.preSum += hashString(r.in.names[arg%catalogueSize])
	}
}

// call makes the stub call for op and reports whether the answer was right.
func (r *rig) call(op opKind, arg uint32) bool {
	in := r.in
	switch op {
	case opPing:
		return r.sess.Ping() == nil
	case opGetVolume:
		v, err := r.sess.GetVolume()
		return err == nil && v == servedVolume
	case opPlay:
		return r.sess.Play(in.names[arg%catalogueSize], media.HdStreamStatePlaying) == nil
	case opList:
		l, err := r.sess.List()
		return err == nil && len(l) == catalogueSize && seqSum(l) == in.listSum
	case opConfigure:
		return r.sess.Configure(in.infos[int(arg)%len(in.infos)], heidi.XBool(arg&1 == 0)) == nil
	case opOpen:
		// No catalogue has a 1 KiB name: the servant must raise
		// NoSuchStream carrying the name back.
		name := in.bigNames[int(arg)%len(in.bigNames)]
		var re *orb.RemoteError
		return errors.As(r.sess.Open(name, int32(arg>>8)), &re) &&
			re.Status == wire.StatusUserException && strings.Contains(re.Msg, name)
	case opPrefetch:
		return r.sess.Prefetch(in.names[arg%catalogueSize]) == nil
	case opFrameReady:
		var start int64
		if r.tr != nil {
			start = time.Now().UnixNano()
		}
		err := r.pub.FrameReady(channelName, int32(arg))
		r.published.Store(int32(arg) + 1)
		if r.tr != nil {
			r.tr.record(spPublish, start, time.Now().UnixNano())
		}
		return err == nil
	}
	return false
}

// phase says how one run of the load is to be tallied: which seeded
// operation stream it draws from (the measured window is stream 0), into how
// many slices of what length, and whether event consumers record latencies.
type phase struct {
	stream int
	slices int
	every  time.Duration
	record bool
}

// Warm-up and settle are tallied whole: one slice that takes everything.
var (
	phaseWarm   = phase{stream: 1, slices: 1, every: time.Hour}
	phaseSettle = phase{stream: 2, slices: 1, every: time.Hour}
)

// phaseMeasured cuts a window of d into slices of every; what is left over
// belongs to the last.
func phaseMeasured(d, every time.Duration) phase {
	n := int(d / every)
	if n < 1 {
		n = 1
	}
	return phase{stream: 0, slices: n, every: every, record: true}
}

// runClosed runs the workload's callers until each has issued perCaller
// operations (if > 0) or d has passed since start, and returns their merged
// tallies.
func (r *rig) runClosed(start time.Time, d time.Duration, perCaller int, ph phase) *loadStats {
	stats := make([]*loadStats, r.wl.callers)
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for c := range stats {
		stats[c] = newLoadStats(start, ph, false)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := newOpSource(r.in.seed, ph.stream*1000+c, r.wl.mix)
			for n := 0; perCaller == 0 || n < perCaller; n++ {
				now := time.Now()
				if perCaller == 0 && !now.Before(deadline) {
					return
				}
				op, arg := src.next()
				r.do(job{op: op, arg: arg, due: now}, stats[c])
			}
		}(c)
	}
	wg.Wait()
	sum := newLoadStats(start, ph, false)
	for _, s := range stats {
		sum.merge(s)
	}
	r.total.add(&sum.sentTally)
	return sum
}

// --- open loop ---------------------------------------------------------------

// openLoop is the arrival schedule of an open-loop run: every period, burst
// jobs fall due at once and are handed to a fixed set of workers, whether or
// not the previous burst has completed. Latency is taken from the due time,
// so a stall anywhere — generator, queue, system — is charged to every job
// it delayed (no coordinated omission).
type openLoop struct {
	period  time.Duration
	burst   int
	workers int
	// stall, if set, runs in the generator when a tick falls due, before it
	// releases the tick's jobs: the pacing test stalls the generator there.
	stall func(tick int)
}

type openResult struct {
	late       hist // how late the generator released each tick
	backlogMax int  // most jobs still waiting for a worker when a tick fell due
}

// spinMargin is how far ahead of a tick the generator stops sleeping and
// starts yield-polling the clock: this host's timers are ~1.1 ms coarse
// (EXPERIMENTS R8), so a plain sleep to the tick would release it late.
const spinMargin = 2 * time.Millisecond

func (ol openLoop) run(start time.Time, ticks int, next func(seq int) (opKind, uint32), do func(worker int, j job)) openResult {
	// Room for every job of the run: the generator never blocks and never
	// refuses, so the backlog is whatever the workers leave behind.
	jobs := make(chan job, ticks*ol.burst)
	var wg sync.WaitGroup
	for w := 0; w < ol.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				do(w, j)
			}
		}(w)
	}
	var res openResult
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * ol.period)
		if d := time.Until(due) - spinMargin; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		if ol.stall != nil {
			ol.stall(k)
		}
		res.late.record(int64(time.Since(due)))
		if n := len(jobs); n > res.backlogMax {
			res.backlogMax = n
		}
		for i := 0; i < ol.burst; i++ {
			op, arg := next(k*ol.burst + i)
			jobs <- job{op: op, arg: arg, due: due}
		}
	}
	close(jobs)
	wg.Wait()
	return res
}

// runOpen runs ticks ticks of the workload's open-loop schedule from start.
// Calls get four bursts' worth of workers, so a burst never waits behind the
// previous one inside the driver; events are published by one worker, in
// order, over the one publisher connection.
func (r *rig) runOpen(start time.Time, ticks int, ph phase) (*loadStats, openResult) {
	ol := openLoop{period: r.wl.period, burst: r.wl.burst, workers: 4 * r.wl.burst}
	events := r.wl.subscribers > 0
	if events {
		ol.workers = 1
	}
	st := newLoadStats(start, ph, true)
	src := newOpSource(r.in.seed, ph.stream*1000, r.wl.mix)
	seq0 := r.nextSeq
	next := func(seq int) (opKind, uint32) {
		if events {
			return opFrameReady, uint32(seq0 + int32(seq))
		}
		return src.next()
	}
	if events {
		if ph.record {
			for _, c := range r.consumers {
				c.begin(newSliceSet(start, ph.every, ph.slices))
			}
		}
		r.phase.Store(&eventPhase{seq0: seq0, base: start, period: ol.period, burst: int32(ol.burst), record: ph.record})
		r.nextSeq += int32(ticks * ol.burst)
	}
	res := ol.run(start, ticks, next, func(_ int, j job) { r.do(j, st) })
	r.total.add(&st.sentTally)
	return st, res
}

// --- phases ------------------------------------------------------------------

// eventQueueDepth is each subscriber's queue bound. The offered load (16
// events per 10 ms) sits far inside even the default of 64, so any drop is
// a failure; but on this host the server process now and then loses the CPU
// for tens of milliseconds, comes back to a socket full of publishes, and
// overflows a 64-deep queue (1 run in 10 at 15 s), and the pipeline needs
// workloads on which no operation fails. 1024 is what BenchmarkEventFanout
// uses. What the deeper queue would hide is reported instead:
// events.backlog_max above 64 marks a window in which the default depth
// could have dropped, and a stall in delivery is charged to every event it
// delayed (slo_ok_ratio).
const eventQueueDepth = 1024

// warmOps is the count-based warm-up that is part of set-up: enough to dial
// every connection, fill the pools and spawn the lazy workers.
const warmOps = 512

func (r *rig) warmUp() error {
	var st *loadStats
	if r.wl.callers > 0 {
		st = r.runClosed(time.Now(), 0, warmOps/r.wl.callers, phaseWarm)
	} else {
		st, _ = r.runOpen(time.Now().Add(spinMargin), 1+warmOps/r.wl.burst/4, phaseWarm)
	}
	if t := st.slices.total(); t.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed", t.failed, st.attempted())
	}
	return r.quiesce()
}

// quiesce waits until the server has served everything this rig sent
// (oneways and event deliveries trail their send) and checks that it saw
// exactly that: counts per operation and the argument checksums.
func (r *rig) quiesce() error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		s, err := r.serverSnap()
		if err != nil {
			return err
		}
		problem := r.compare(s)
		if problem == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New(problem)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (r *rig) compare(s serverSnap) string {
	requests := uint64(r.wl.subscribers) // one subscribe call each
	for op := opKind(0); op < numOps; op++ {
		requests += r.total.sent[op]
		if op != opFrameReady && s.Served[op] != r.total.sent[op] {
			return fmt.Sprintf("server served %d %s, driver sent %d", s.Served[op], opNames[op], r.total.sent[op])
		}
	}
	if s.Requests != requests {
		return fmt.Sprintf("the server ORB counted %d requests, driver sent %d", s.Requests, requests)
	}
	if s.CfgSum != r.total.cfgSum || s.PreSum != r.total.preSum {
		return "servant-side argument checksum differs from what the driver sent"
	}
	if r.wl.subscribers > 0 {
		sent := r.total.sent[opFrameReady]
		if s.Chan.Published != sent {
			return fmt.Sprintf("channel saw %d publishes, driver sent %d", s.Chan.Published, sent)
		}
		settled := s.Chan.Delivered + s.Chan.Dropped + s.Chan.Coalesced + s.Chan.Undelivered + s.Chan.Discarded
		if settled != s.Chan.Enqueued {
			return fmt.Sprintf("channel has %d events still queued", s.Chan.Enqueued-settled)
		}
		// Delivered means on the wire; the upcalls trail it.
		got, _ := r.upcalls()
		if got < s.Chan.Delivered {
			return fmt.Sprintf("consumers saw %d of %d delivered events", got, s.Chan.Delivered)
		}
	}
	return ""
}

// upcalls sums the consumers' tallies: events seen, and events seen out of
// sequence.
func (r *rig) upcalls() (got, bad uint64) {
	for _, c := range r.consumers {
		c.mu.Lock()
		got += c.got
		bad += c.bad
		c.mu.Unlock()
	}
	return got, bad
}
