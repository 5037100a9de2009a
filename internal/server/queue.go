package server

import "sync"

// reqQueue is the per-shard MPSC request queue: many connection goroutines
// push, the shard's few leased workers pop. Pops take the entire backlog in
// one swap (natural batching — a worker that wakes up amortizes the lock
// and scheme cadence over every request that arrived while it slept), and
// the two backing slices are recycled between the queue and the workers so
// a steady-state shard allocates nothing per request.
//
// The queue is bounded: push fails with errBusy at max entries, turning
// overload into StatusBusy backpressure at the protocol layer instead of
// unbounded buffering. After close, push fails with errClosed but pops
// continue until the backlog is empty — that drain-to-empty guarantee is
// what makes graceful shutdown lose no accepted operation.
type reqQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	buf      []request
	max      int
	closed   bool
}

func newReqQueue(max int) *reqQueue {
	q := &reqQueue{max: max}
	q.notEmpty.L = &q.mu
	return q
}

// push enqueues r. It returns errClosed after close and errBusy when the
// queue is at capacity; in both cases r was not accepted and no worker
// will ever complete it.
func (q *reqQueue) push(r request) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return errClosed
	}
	if len(q.buf) >= q.max {
		q.mu.Unlock()
		return errBusy
	}
	q.buf = append(q.buf, r)
	q.mu.Unlock()
	q.notEmpty.Signal()
	return nil
}

// pushControl enqueues an engine-internal control request, bypassing the
// capacity bound: remediation must be admittable precisely when the queue
// is saturated. It reports false only after close, when control work is
// pointless (Close resolves outstanding quarantines itself at quiescence).
func (q *reqQueue) pushControl(r request) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.buf = append(q.buf, r)
	q.mu.Unlock()
	q.notEmpty.Signal()
	return true
}

// popAll blocks until the queue is non-empty or closed, then returns the
// whole backlog. spill is the caller's previous batch, recycled as the new
// backing buffer. ok is false only when the queue is closed AND empty —
// the worker's signal to exit.
func (q *reqQueue) popAll(spill []request) (batch []request, ok bool) {
	q.mu.Lock()
	for len(q.buf) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.buf) == 0 { // closed and drained
		q.mu.Unlock()
		return nil, false
	}
	batch = q.buf
	q.buf = spill[:0]
	q.mu.Unlock()
	return batch, true
}

// close marks the queue closed and wakes every waiting worker. Requests
// already accepted remain in the backlog and will still be popped.
func (q *reqQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
}

// depth returns the current backlog length (metrics).
func (q *reqQueue) depth() int {
	q.mu.Lock()
	n := len(q.buf)
	q.mu.Unlock()
	return n
}
