package bench

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ibr"
)

// Doer issues one request on connection conn and returns its answer.
type Doer func(conn int, req ibr.Request) (ibr.Response, error)

// Stats is what one load phase saw.
type Stats struct {
	// Lat holds per-class latencies in ns: from the due time in an open
	// loop, from the send in a closed loop.
	Lat [NumClasses]Recorder
	// Late holds, per open-loop request, how long after its due time it
	// was sent (ns): the generator's own lag plus any wait for a free
	// outstanding slot.
	Late Recorder
	// Steal is the host's steal time over the phase, in clock ticks.
	Steal int64

	Attempted atomic.Int64 // requests sent
	Completed atomic.Int64 // requests answered (any status)
	Failed    atomic.Int64 // BUSY, transport error, or a failed validation
	Busy      atomic.Int64 // BUSY answers (a subset of Failed)
	Invalid   atomic.Int64 // failed validations (a subset of Failed)
	Unsent    atomic.Int64 // open loop: due but dropped, the loop fell too far behind

	// Elapsed is the phase's start to its last completion.
	Elapsed time.Duration
	// Scheduled is the open loop's request count (rate × duration).
	Scheduled int64
	// BacklogEnd is the open loop's requests due by the schedule's end but
	// not yet answered at that instant.
	BacklogEnd int64

	mu       sync.Mutex
	firstErr error
}

// FirstErr returns the first failure's description (nil when none).
func (s *Stats) FirstErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// pool returns one recorder holding the latency samples of classes from
// every phase in sts.
func pool(sts []*Stats, classes ...int) *Recorder {
	var p Recorder
	for _, s := range sts {
		for _, c := range classes {
			r := &s.Lat[c]
			r.mu.Lock()
			p.xs = append(p.xs, r.xs...)
			r.mu.Unlock()
		}
	}
	return &p
}

// StealFrac returns the share of the phase's CPU time the host stole.
func (s *Stats) StealFrac() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	cpu := s.Elapsed.Seconds() * float64(runtime.NumCPU())
	return float64(s.Steal) * clockTick.Seconds() / cpu
}

// stealTicks reads the host's cumulative steal time (clock ticks) from
// /proc/stat: time the virtual CPUs were runnable but the hypervisor ran
// something else. It is 0 where not reported.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// Rate returns completed requests per second of Elapsed.
func (s *Stats) Rate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Completed.Load()) / s.Elapsed.Seconds()
}

// finish validates one answer and counts it.
func (s *Stats) finish(req ibr.Request, resp ibr.Response, err error) bool {
	s.Completed.Add(1)
	if err == nil {
		err = Validate(req, resp)
		if err == ErrBusy {
			s.Busy.Add(1)
		} else if err != nil {
			s.Invalid.Add(1)
		}
	}
	if err != nil {
		s.Failed.Add(1)
		s.mu.Lock()
		if s.firstErr == nil {
			s.firstErr = err
		}
		s.mu.Unlock()
		return false
	}
	return true
}

// OpenLoop offers requests on a fixed schedule, independent of how fast
// they are answered: request i is due at start + i/Rate. Each request's
// latency runs from its due time, so a stall in the server (or in the
// generator) is charged to every request it delays, not only to the one
// it hit.
type OpenLoop struct {
	Rate           float64
	Duration       time.Duration
	Conns          int
	WorkersPerConn int
	Next           func() ibr.Request
	Do             Doer
	// OnDone, when set, sees every answered request with its due, send
	// and completion times.
	OnDone func(req ibr.Request, due, sent, done time.Time)
}

// grace is how long past an open loop's end a late request may still be
// sent; later ones are dropped and counted as Unsent.
const grace = time.Second

type job struct {
	req ibr.Request
	due time.Time
}

// Run drives the schedule to completion and returns what it saw.
func (o *OpenLoop) Run() *Stats {
	st := &Stats{}
	n := int64(o.Rate * o.Duration.Seconds())
	st.Scheduled = n
	st.Late.Reserve(int(n))
	for c := range st.Lat {
		st.Lat[c].Reserve(int(n))
	}
	// Requests due while every worker is busy wait here, timed from their
	// due time; the pacer blocks (and its lateness shows) only beyond it.
	jobs := make(chan job, min(n, 1<<16))
	steal0, start := stealTicks(), time.Now()
	end := start.Add(o.Duration)
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < o.Conns; c++ {
		for w := 0; w < o.WorkersPerConn; w++ {
			wg.Add(1)
			go func(conn int) {
				defer wg.Done()
				for j := range jobs {
					sent := time.Now()
					if sent.After(end.Add(grace)) {
						st.Unsent.Add(1)
						continue
					}
					st.Attempted.Add(1)
					st.Late.Add(int64(sent.Sub(j.due)))
					resp, err := o.Do(conn, j.req)
					done := time.Now()
					if st.finish(j.req, resp, err) {
						st.Lat[ClassOf(j.req.Op)].Add(int64(done.Sub(j.due)))
					}
					if o.OnDone != nil {
						o.OnDone(j.req, j.due, sent, done)
					}
					setMax(&lastDone, int64(done.Sub(start)))
				}
			}(c)
		}
	}
	o.pace(jobs, start, n)
	if d := time.Until(end); d > 0 {
		time.Sleep(d)
	}
	st.BacklogEnd = n - st.Completed.Load()
	close(jobs)
	wg.Wait()
	st.Elapsed = time.Duration(lastDone.Load())
	st.Steal = stealTicks() - steal0
	return st
}

// pace hands the n scheduled requests to the workers at their due times.
// It runs on its own OS thread with minimal timer slack and sleeps with
// nanosleep: the Go timer wheel parks an idle process for a whole
// millisecond, far coarser than the inter-arrival gap. Requests already
// due are released in one burst after each wake-up.
func (o *OpenLoop) pace(jobs chan<- job, start time.Time, n int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	period := float64(time.Second) / o.Rate
	due := func(i int64) time.Duration { return time.Duration(float64(i) * period) }
	const minSleep = 20 * time.Microsecond
	for i := int64(0); i < n; {
		now := time.Since(start)
		for ; i < n && due(i) <= now; i++ {
			jobs <- job{req: o.Next(), due: start.Add(due(i))}
		}
		if i < n {
			d := due(i) - time.Since(start)
			if d < minSleep {
				d = minSleep
			}
			nanosleep(d)
		}
	}
}

// ClosedLoop keeps a fixed number of requests outstanding: each of
// Conns × DepthPerConn callers sends its next request only after its
// previous one was answered, for Duration.
type ClosedLoop struct {
	Duration     time.Duration
	Conns        int
	DepthPerConn int
	// NewNext returns caller i's request stream.
	NewNext func(caller int) func() ibr.Request
	Do      Doer
	// SkipLatency leaves Lat empty, so that a probe's allocation counts
	// hold only the layer under test.
	SkipLatency bool
	// OnDone, when set, sees every answered request with its send and
	// completion times.
	OnDone func(req ibr.Request, sent, done time.Time)
}

// Run drives the loop and returns what it saw.
func (c *ClosedLoop) Run() *Stats {
	st := &Stats{}
	steal0, start := stealTicks(), time.Now()
	end := start.Add(c.Duration)
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < c.Conns*c.DepthPerConn; i++ {
		next := c.NewNext(i)
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				req := next()
				st.Attempted.Add(1)
				resp, err := c.Do(conn, req)
				done := time.Now()
				if st.finish(req, resp, err) && !c.SkipLatency {
					st.Lat[ClassOf(req.Op)].Add(int64(done.Sub(sent)))
				}
				if c.OnDone != nil {
					c.OnDone(req, sent, done)
				}
				setMax(&lastDone, int64(done.Sub(start)))
			}
		}(i % c.Conns)
	}
	wg.Wait()
	st.Elapsed = time.Duration(lastDone.Load())
	st.Steal = stealTicks() - steal0
	return st
}

func setMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// setTimerSlack sets the calling thread's timer slack in ns (Linux
// prctl PR_SET_TIMERSLACK); the default 50µs would dominate short sleeps.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	// On failure the default slack stays: the pacer is merely later.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}
