package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// This file implements write coalescing: a bounded queue in front of one
// connection's write side, drained by a dedicated flusher goroutine that
// emits whatever has accumulated as a single gathered write (SendBatch →
// writev on TCP). Under N concurrent pipelined callers this collapses ~N
// syscalls into ~1; with a single caller a direct-write fast path bypasses
// the queue entirely so the latency tax stays marginal. See DESIGN.md §9.

// Batch bounds. maxBatchFrames bounds both the queue depth and the number of
// frames in one gathered write; maxBatchBytes bounds the (estimated) payload
// bytes in one gathered write, and a batch always admits at least one frame.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 256 << 10
)

// ErrNotSent is returned for frames the coalescer never attempted to write:
// the queue was drained by shutdown or a prior batch's failure. The frame
// cannot have reached the peer, so retrying is always safe.
var ErrNotSent = errors.New("transport: frame not sent")

// ErrFlushFailed is returned (wrapped around the I/O error) for frames that
// were part of a gathered write that failed. Frames earlier in the batch may
// have reached the peer — and on a partial write so may a prefix of this
// frame — so the outcome is ambiguous.
var ErrFlushFailed = errors.New("transport: gathered write failed")

// coalesceEntry is one queued frame awaiting its batch.
type coalesceEntry struct {
	m    *wire.Message
	done chan error // exactly one send per enqueue
}

var entryPool = sync.Pool{
	New: func() any { return &coalesceEntry{done: make(chan error, 1)} },
}

// Coalescer fronts one Conn's write side with a flusher-drained queue. Send
// blocks until the frame is on the wire (or has failed), so callers keep
// their existing synchronous semantics. A Coalescer is poisoned by the first
// write error: the stream's framing is unknown past that point.
type Coalescer struct {
	c  Conn
	bs BatchSender // c's gathered-write surface, nil if unsupported

	mu       sync.Mutex
	notEmpty sync.Cond // queue went non-empty, or closed
	notFull  sync.Cond // queue has room, or closed
	queue    []*coalesceEntry
	writing  bool // a direct writer or the flusher owns the write side
	closed   bool
	cause    error       // first failure, nil on clean Close
	down     atomic.Bool // mirrors closed, readable without the mutex

	done chan struct{} // flusher exited
}

// NewCoalescer starts a coalescing writer over c.
func NewCoalescer(c Conn) *Coalescer {
	q := &Coalescer{c: c, done: make(chan struct{})}
	q.bs, _ = c.(BatchSender)
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	go q.run()
	return q
}

// Send writes m through the coalescer, blocking until the frame has been
// written or has failed. Errors: the underlying Send error on the direct
// path, ErrFlushFailed (wrapped) if m's batch failed, ErrNotSent if m was
// still queued when the coalescer shut down.
func (q *Coalescer) Send(m *wire.Message) error { return q.send(m, false) }

// SendBatched is Send minus the direct-write fast path: the frame always
// goes through the queue, even when the write side is idle. Callers use it
// as a group-commit hint — when they know more frames are imminent (other
// calls in flight on the same connection, other dispatch workers about to
// reply), skipping the direct write lets the flusher gather them into one
// writev. This is what forms batches on a single-CPU scheduler, where
// non-blocking sends never overlap and the queue would otherwise always
// look empty.
func (q *Coalescer) SendBatched(m *wire.Message) error { return q.send(m, true) }

func (q *Coalescer) send(m *wire.Message, batched bool) error {
	q.mu.Lock()
	if q.closed {
		err := q.notSentLocked()
		q.mu.Unlock()
		return err
	}
	// Fast path: nothing queued and the write side idle — write directly,
	// skipping the enqueue/wakeup round trip. This is what keeps the
	// single-caller latency tax under the 10% budget.
	if !batched && len(q.queue) == 0 && !q.writing {
		q.writing = true
		q.mu.Unlock()
		err := q.c.Send(m)
		q.mu.Lock()
		q.writing = false
		if err != nil {
			q.failLocked(err)
		} else if len(q.queue) > 0 {
			q.notEmpty.Signal()
		}
		q.mu.Unlock()
		return err
	}
	for !q.closed && len(q.queue) >= maxBatchFrames {
		q.notFull.Wait()
	}
	if q.closed {
		err := q.notSentLocked()
		q.mu.Unlock()
		return err
	}
	e := entryPool.Get().(*coalesceEntry)
	e.m = m
	q.queue = append(q.queue, e)
	if len(q.queue) == 1 {
		q.notEmpty.Signal()
	}
	q.mu.Unlock()
	err := <-e.done
	e.m = nil
	entryPool.Put(e)
	return err
}

// Close shuts the coalescer down: queued-but-unwritten frames fail with
// ErrNotSent and the flusher exits. The underlying Conn is not closed.
func (q *Coalescer) Close() error {
	q.mu.Lock()
	if !q.closed {
		q.failLocked(nil)
	}
	q.mu.Unlock()
	<-q.done
	return nil
}

// Err returns the write failure that poisoned the coalescer — nil while it
// is healthy, and nil after a clean Close. The mux pool consults it so a
// connection whose write side died is replaced even before the demux reader
// observes the (asynchronous) read-side failure.
func (q *Coalescer) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cause
}

// dead reports whether the coalescer has shut down (poisoned or cleanly
// closed) without taking the mutex — this sits on the pool's per-call path,
// where a lock would contend with the flusher and every sender.
func (q *Coalescer) dead() bool { return q.down.Load() }

// notSentLocked builds the error for a frame that was never attempted.
func (q *Coalescer) notSentLocked() error {
	if q.cause != nil {
		return fmt.Errorf("%w: %v", ErrNotSent, q.cause)
	}
	return ErrNotSent
}

// failLocked poisons the coalescer: records the cause, fails every queued
// entry with ErrNotSent (their frames were never attempted, so they are safe
// to retry) and wakes everyone. Callers hold q.mu.
func (q *Coalescer) failLocked(cause error) {
	q.closed = true
	q.down.Store(true)
	if q.cause == nil {
		q.cause = cause
	}
	err := q.notSentLocked()
	for i, e := range q.queue {
		e.done <- err
		q.queue[i] = nil
	}
	q.queue = q.queue[:0]
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// frameOverhead approximates per-frame header bytes for the maxBatchBytes
// budget (the exact size is protocol-dependent and not worth an extra
// encode).
const frameOverhead = 64

// run is the flusher: it sleeps until frames accumulate, then drains up to
// the frame/byte budget into one gathered write and resolves each frame's
// waiter.
func (q *Coalescer) run() {
	defer close(q.done)
	var batch []*coalesceEntry
	var msgs []*wire.Message
	for {
		q.mu.Lock()
		// Wait for work AND for the write side to be free: a direct-path
		// writer may be mid-Send, and the write side is single-owner (the
		// faultConn wrapper counts sends un-locked on that basis). Frames
		// arriving during a direct write simply accumulate into the next
		// batch — the direct writer signals notEmpty when it finishes.
		for (len(q.queue) == 0 || q.writing) && !q.closed {
			q.notEmpty.Wait()
		}
		if q.closed {
			// failLocked already drained the queue.
			q.mu.Unlock()
			return
		}
		// Group-commit accumulation: senders that chose the queued path are
		// parked one wakeup away from enqueueing the frames we want in THIS
		// batch. Yield the processor while the queue is still growing and
		// cut the batch only once it stabilizes (or fills). Unlike a linger
		// sleep this costs scheduler round trips, not wall-clock: on an idle
		// machine a yield is ~100ns, and on a saturated single processor it
		// is exactly what lets the remaining callers run and enqueue.
		for len(q.queue) < maxBatchFrames {
			n := len(q.queue)
			q.mu.Unlock()
			runtime.Gosched()
			q.mu.Lock()
			if q.closed {
				q.mu.Unlock()
				return
			}
			if len(q.queue) <= n {
				break // stable: everyone with a frame ready has enqueued
			}
		}
		// Cut a batch honouring both budgets (always at least one frame).
		take, bytes := 0, 0
		for take < len(q.queue) && take < maxBatchFrames {
			sz := len(q.queue[take].m.Body) + frameOverhead
			if take > 0 && bytes+sz > maxBatchBytes {
				break
			}
			bytes += sz
			take++
		}
		batch = append(batch[:0], q.queue[:take]...)
		rem := copy(q.queue, q.queue[take:])
		for i := rem; i < len(q.queue); i++ {
			q.queue[i] = nil
		}
		q.queue = q.queue[:rem]
		q.writing = true
		q.notFull.Broadcast()
		q.mu.Unlock()

		msgs = msgs[:0]
		for _, e := range batch {
			msgs = append(msgs, e.m)
		}
		var err error
		switch {
		case len(msgs) == 1:
			err = q.c.Send(msgs[0])
		case q.bs != nil:
			err = q.bs.SendBatch(msgs)
		default:
			for _, m := range msgs {
				if err = q.c.Send(m); err != nil {
					break
				}
			}
		}
		for i, e := range batch {
			if err == nil {
				e.done <- nil
			} else {
				e.done <- fmt.Errorf("%w: %v", ErrFlushFailed, err)
			}
			batch[i] = nil
		}
		q.mu.Lock()
		q.writing = false
		if err != nil {
			q.failLocked(err)
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
	}
}
