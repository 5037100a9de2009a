package bench

import (
	"testing"
	"time"

	"ibr"
)

// instant answers every request at once with a valid response.
func instant(_ int, req ibr.Request) (ibr.Response, error) {
	switch req.Op {
	case ibr.OpGet:
		return ibr.Response{Status: ibr.StatusNotFound}, nil
	case ibr.OpPut:
		return ibr.Response{Status: ibr.StatusOK, Val: req.Val}, nil
	}
	return ibr.Response{Status: ibr.StatusOK}, nil
}

func getStream() func() ibr.Request {
	return func() ibr.Request { return ibr.Request{Op: ibr.OpGet, Key: 1} }
}

// TestOpenLoopTimesFromDue stalls the generator for 60ms partway through a
// 1000/s schedule. The requests that fell due during the stall are sent
// late, and their latency must include that wait even though the server
// answers instantly: latency runs from the due time, not the send.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	next, n := getStream(), 0
	st := (&OpenLoop{
		Rate: 1000, Duration: 300 * time.Millisecond, Conns: 1, WorkersPerConn: 4,
		Do: instant,
		Next: func() ibr.Request {
			if n++; n == 100 {
				time.Sleep(stall)
			}
			return next()
		},
	}).Run()
	if st.Completed.Load() != 300 || st.Failed.Load() != 0 {
		t.Fatalf("completed %d failed %d, want 300 and 0", st.Completed.Load(), st.Failed.Load())
	}
	// ~60 requests fell due during the stall; the first waited ~60ms.
	if max := st.Lat[ClassGet].Quantile(1); max < int64(stall)*8/10 {
		t.Errorf("max latency %v, want >= %v: the stall was not charged", time.Duration(max), stall*8/10)
	}
	if late := st.Late.Quantile(0.9); late < int64(5*time.Millisecond) {
		t.Errorf("p90 lateness %v: the stalled requests were not counted late", time.Duration(late))
	}
	// Dozens of requests queued behind the stall: the p90 is late too.
	if p90 := st.Lat[ClassGet].Quantile(0.9); p90 < int64(5*time.Millisecond) {
		t.Errorf("p90 latency %v: the stall should delay dozens of requests", time.Duration(p90))
	}
}

// TestOpenLoopBusyWorkers gives the loop a single outstanding slot and a
// server that takes 5ms: requests queue behind it, and each one's latency
// grows with its queueing, which a send-to-answer timer would miss.
func TestOpenLoopBusyWorkers(t *testing.T) {
	slow := func(conn int, req ibr.Request) (ibr.Response, error) {
		time.Sleep(5 * time.Millisecond)
		return instant(conn, req)
	}
	st := (&OpenLoop{Rate: 1000, Duration: 50 * time.Millisecond, Conns: 1, WorkersPerConn: 1,
		Do: slow, Next: getStream()}).Run()
	if got := st.Completed.Load(); got != 50 {
		t.Fatalf("completed %d, want 50", got)
	}
	// The last request was due at 49ms and waited for 49 others of 5ms.
	if max := st.Lat[ClassGet].Quantile(1); max < int64(150*time.Millisecond) {
		t.Errorf("max latency %v, want >= 150ms of queueing", time.Duration(max))
	}
	if st.BacklogEnd < 30 {
		t.Errorf("backlog at window end %d, want most of the 50 still queued", st.BacklogEnd)
	}
}

func TestOpenLoopCountsInvalid(t *testing.T) {
	wrong := func(_ int, req ibr.Request) (ibr.Response, error) {
		return ibr.Response{Status: ibr.StatusOK, Val: 0}, nil // GET value breaks 2k+1
	}
	st := (&OpenLoop{Rate: 1000, Duration: 20 * time.Millisecond, Conns: 1, WorkersPerConn: 2,
		Do: wrong, Next: getStream()}).Run()
	if st.Invalid.Load() != 20 || st.Failed.Load() != 20 || st.FirstErr() == nil {
		t.Fatalf("invalid %d failed %d err %v, want 20, 20, non-nil", st.Invalid.Load(), st.Failed.Load(), st.FirstErr())
	}
	if st.Lat[ClassGet].Count() != 0 {
		t.Fatal("failed ops must not enter the latency samples")
	}
}

func TestClosedLoopKeepsDepth(t *testing.T) {
	var inflight, peak int64
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	do := func(conn int, req ibr.Request) (ibr.Response, error) {
		<-mu
		inflight++
		peak = max(peak, inflight)
		mu <- struct{}{}
		time.Sleep(time.Millisecond)
		<-mu
		inflight--
		mu <- struct{}{}
		return instant(conn, req)
	}
	st := (&ClosedLoop{Duration: 50 * time.Millisecond, Conns: 2, DepthPerConn: 3, Do: do,
		NewNext: func(int) func() ibr.Request { return getStream() }}).Run()
	if peak > 6 || peak < 2 {
		t.Errorf("peak outstanding %d, want <= 6 and several", peak)
	}
	if st.Completed.Load() < 50 || st.Rate() <= 0 {
		t.Errorf("completed %d rate %v", st.Completed.Load(), st.Rate())
	}
}
