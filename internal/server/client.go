package server

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a pipelined connection to an ibrd server. It is safe for
// concurrent use: many goroutines may call DoContext on one Client,
// requests are coalesced into batched writes by a dedicated writer
// goroutine, and ids match responses back to callers — so N concurrent
// callers give a natural pipeline depth of N without any per-request
// connection state.
//
// Every blocking call takes a context. Cancellation abandons the CALL, not
// the connection: a request already on the wire still gets its response,
// which is discarded on arrival (the result channel is buffered, so the
// reader never blocks on an abandoned caller), and the client stays usable.
type Client struct {
	conn  net.Conn
	reqs  chan reqFrame
	done  chan struct{} // closed by fail(): unblocks senders, stops the writer
	retry *RetryPolicy  // WithRetry: DoContext retries StatusBusy under it

	pmu      sync.Mutex // guards pending, nextID, err
	pending  map[uint32]chan result
	nextID   uint32
	err      error // first fatal error; set once, fails all later Dos
	failOnce sync.Once

	retries atomic.Uint64 // busy re-submissions made under a retry policy
}

type reqFrame struct {
	id  uint32
	req Request
}

type result struct {
	resp Response
	err  error
}

// ClientOption configures a Client at Dial time.
type ClientOption func(*Client)

// WithRetry makes every DoContext (and the ops built on it) transparently
// retry StatusBusy responses — the server's backpressure signal for a full
// shard queue, a shedding shard, or an exhausted node pool — under p with
// jittered exponential backoff, until the context ends or attempts run
// out. On exhaustion the call returns the last busy Response and an error
// wrapping ErrBusy, so callers distinguish "the server kept refusing"
// (errors.Is ErrBusy) from a broken connection. Other statuses and
// transport errors return immediately, unretried. The zero RetryPolicy
// selects the defaults.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) {
		pol := p.withDefaults()
		c.retry = &pol
	}
}

// RetryPolicy shapes a retrying client's handling of StatusBusy responses
// (see WithRetry). Delays grow exponentially from BaseDelay, are capped at
// MaxDelay, and carry ±50% jitter so a fleet of clients backing off from
// the same overloaded shard does not resynchronize into waves. The zero
// value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (default 4).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay after the first busy response
	// (default 1ms); attempt n waits about BaseDelay<<n.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter delay (default 100ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// backoffDelay is attempt n's (0-based) sleep: exponential growth capped at
// MaxDelay, then jittered to a uniform value in [exp/2, exp). rng may be
// nil (the global source); tests pass a seeded one for determinism.
func backoffDelay(p RetryPolicy, attempt int, rng *rand.Rand) time.Duration {
	exp := p.BaseDelay
	for i := 0; i < attempt && exp < p.MaxDelay; i++ {
		exp *= 2
	}
	if exp > p.MaxDelay {
		exp = p.MaxDelay
	}
	half := exp / 2
	if half <= 0 {
		return exp
	}
	var j int64
	if rng != nil {
		j = rng.Int63n(int64(half))
	} else {
		j = rand.Int63n(int64(half))
	}
	return half + time.Duration(j)
}

// Dial connects to an ibrd server.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cl := &Client{
		conn:    conn,
		reqs:    make(chan reqFrame, 256),
		done:    make(chan struct{}),
		pending: map[uint32]chan result{},
	}
	for _, o := range opts {
		o(cl)
	}
	go cl.writeLoop()
	go cl.readLoop()
	return cl, nil
}

// writeLoop encodes requests and writes them in batches: one syscall
// covers every request that arrived while the previous write was in
// flight, which is where the pipeline's throughput comes from.
func (c *Client) writeLoop() {
	var buf []byte
	for {
		var r reqFrame
		select {
		case r = <-c.reqs:
		case <-c.done:
			return
		}
		buf = appendRequest(buf[:0], r.id, r.req)
	coalesce:
		for len(buf) < 16*1024 {
			select {
			case r = <-c.reqs:
				buf = appendRequest(buf, r.id, r.req)
			default:
				break coalesce
			}
		}
		if _, err := c.conn.Write(buf); err != nil {
			c.fail(fmt.Errorf("server: write: %w", err))
			return
		}
	}
}

// readLoop dispatches responses to waiting callers by id. On any transport
// or protocol error it fails every pending and future call. Responses for
// abandoned calls (context expired after the request was sent) still have a
// pending entry with a buffered channel, so delivery never blocks and an
// id is recycled only after its response arrived.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	frame := make([]byte, 0, respHeaderLen)
	for {
		payload, err := readFrame(br, maxRespFrame, frame)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		frame = payload[:0]
		id, resp, perr := parseResponse(payload)
		if perr != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", perr))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("server: response for unknown request id %d", id))
			return
		}
		ch <- result{resp: resp}
	}
}

// fail marks the client broken, stops the writer, and wakes every waiting
// caller exactly once each (a caller's channel leaves pending the moment
// anything is sent on it).
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	stranded := c.pending
	c.pending = map[uint32]chan result{}
	c.pmu.Unlock()
	c.failOnce.Do(func() { close(c.done) })
	for _, ch := range stranded {
		ch <- result{err: err}
	}
}

// DoContext issues one typed operation and blocks for its response or the
// context's end, whichever comes first. A non-nil error is either the
// context's (the call was abandoned; the connection is fine and the client
// remains usable), a transport error (the connection is broken and every
// future call fails the same way), or — on a WithRetry client — an
// ErrBusy-wrapping exhaustion error. Protocol outcomes like StatusNotFound
// or StatusUnsupported are returned in the Response, not as errors. A zero
// req.TraceID is filled from ctx (see WithTraceID).
func (c *Client) DoContext(ctx context.Context, req Request) (Response, error) {
	if req.TraceID == 0 {
		req.TraceID = TraceIDFrom(ctx)
	}
	if c.retry == nil {
		return c.doOnce(ctx, req)
	}
	return c.doRetry(ctx, req, *c.retry)
}

// resultChans recycles doOnce's one-slot result channels. A channel goes
// back only after its one result was received, or when it never reached
// the wire: an abandoned call's channel may still get a late result, so it
// is left to the GC.
var resultChans = sync.Pool{New: func() any { return make(chan result, 1) }}

// doOnce issues req exactly once.
func (c *Client) doOnce(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	ch := resultChans.Get().(chan result)
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		resultChans.Put(ch)
		return Response{}, err
	}
	// After nextID wraps uint32, the counter can land on an id whose
	// request is still in flight; assigning it again would overwrite the
	// earlier caller's channel in pending and strand that caller forever.
	// Skip ids that are still pending (there are at most MaxInflight-ish
	// of them, so this terminates after a handful of probes).
	id := c.nextID
	for {
		if _, taken := c.pending[id]; !taken {
			break
		}
		id++
	}
	c.nextID = id + 1
	c.pending[id] = ch
	c.pmu.Unlock()

	select {
	case c.reqs <- reqFrame{id: id, req: req}:
	case <-c.done:
		// The client failed while we were enqueueing; fail() has already
		// delivered the error to ch (we registered before selecting).
	case <-ctx.Done():
		// Nothing went on the wire. If the entry is still ours, withdraw it
		// and the id is free for reuse; if it is already gone, fail() raced
		// us and a result is (or is about to be) in ch — consume it so the
		// call reports the more specific outcome.
		c.pmu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if mine {
			resultChans.Put(ch)
			return Response{}, ctx.Err()
		}
		r := <-ch
		resultChans.Put(ch)
		return r.resp, r.err
	}
	select {
	case r := <-ch:
		resultChans.Put(ch)
		return r.resp, r.err
	case <-ctx.Done():
		// The request is on the wire and its response WILL arrive carrying
		// this id, so the pending entry must stay: readLoop uses it to
		// recognize the id and discards the result into the buffered
		// channel. Deleting it here would make the response "unknown" and
		// kill the whole connection. ch is not recycled: the late result
		// will land in it.
		return Response{}, ctx.Err()
	}
}

// doRetry issues req, retrying StatusBusy under p (see WithRetry).
func (c *Client) doRetry(ctx context.Context, req Request, p RetryPolicy) (Response, error) {
	var resp Response
	for attempt := 0; ; attempt++ {
		var err error
		resp, err = c.doOnce(ctx, req)
		if err != nil {
			return resp, err
		}
		if resp.Status != StatusBusy {
			return resp, nil
		}
		if attempt == p.MaxAttempts-1 {
			return resp, fmt.Errorf("server: %d attempts exhausted: %w", p.MaxAttempts, ErrBusy)
		}
		t := time.NewTimer(backoffDelay(p, attempt, nil))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return resp, ctx.Err()
		}
		c.retries.Add(1)
	}
}

// Get looks key up.
func (c *Client) Get(ctx context.Context, key uint64) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpGet, Key: key})
}

// Put inserts key→val if absent. ttl, when positive, arms the server-side
// expiry: the key is removed — through the reclamation scheme's normal
// retire path — once it lapses. Pass 0 for no expiry.
func (c *Client) Put(ctx context.Context, key, val uint64, ttl time.Duration) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpPut, Key: key, Val: val, TTL: ttl})
}

// Del removes key.
func (c *Client) Del(ctx context.Context, key uint64) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpDel, Key: key})
}

// Range scans [from, hi] ascending, returning at most limit pairs (0 =
// the server's default cap). The scan executes inside one reservation
// interval per shard — it is the paper's long-running read, issued over
// the wire.
func (c *Client) Range(ctx context.Context, from, hi uint64, limit uint32) (Response, error) {
	return c.DoContext(ctx, Request{Op: OpRange, Key: from, KeyHi: hi, Limit: limit})
}

// Do issues one positional operation with no deadline.
//
// Deprecated: use DoContext with a typed Request (or the Get/Put/Del/Range
// helpers), which bounds the wait and keeps the client usable when a
// caller gives up.
func (c *Client) Do(op Op, key, val uint64) (Resp, error) {
	return c.DoContext(context.Background(), Request{Op: op, Key: key, Val: val})
}

// DoRetry issues one positional operation, retrying StatusBusy under p.
//
// Deprecated: dial with WithRetry(p) instead; DoContext then retries
// transparently.
func (c *Client) DoRetry(ctx context.Context, op Op, key, val uint64, p RetryPolicy) (Resp, error) {
	return c.doRetry(ctx, Request{Op: op, Key: key, Val: val, TraceID: TraceIDFrom(ctx)}, p.withDefaults())
}

// Retries returns how many busy re-submissions the client's retry policy
// has made over its lifetime — the load generator's retry-rate counter.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// PingContext round-trips a no-op frame under ctx.
func (c *Client) PingContext(ctx context.Context) error {
	r, err := c.DoContext(ctx, Request{Op: OpPing, Val: 42})
	if err != nil {
		return err
	}
	if r.Status != StatusOK || r.Val != 42 {
		return fmt.Errorf("server: ping got %v/%d", r.Status, r.Val)
	}
	return nil
}

// Ping round-trips a no-op frame with no deadline.
//
// Deprecated: use PingContext.
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// Close tears the connection down immediately; in-flight calls fail with an
// error wrapping ErrClosed.
func (c *Client) Close() error {
	// fail() first: it wins the first-error slot, so in-flight calls see
	// ErrClosed instead of the readLoop's "use of closed connection".
	c.fail(fmt.Errorf("server: client closed: %w", ErrClosed))
	return c.conn.Close()
}

// CloseContext waits for every in-flight call to complete — the graceful
// counterpart to Close — then tears the connection down. If ctx ends
// first, it closes immediately (failing the stragglers) and returns the
// context's error.
func (c *Client) CloseContext(ctx context.Context) error {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		c.pmu.Lock()
		n := len(c.pending)
		broken := c.err != nil
		c.pmu.Unlock()
		if n == 0 || broken {
			return c.Close()
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			c.Close()
			return ctx.Err()
		}
	}
}
