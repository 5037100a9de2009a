package bench

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ibr"
	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/server"
)

var bgctx = context.Background()

// Shape is the serving shape both ibrd and the in-process probes use.
type Shape struct {
	Scheme  string `json:"scheme"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
}

// allocDelta measures the process's heap allocations across f.
func allocDelta(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// sampleEvery calls f every period until the returned stop is called.
func sampleEvery(period time.Duration, f func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// DSResult is the ds probe's outcome: the structure and its scheme driven
// directly, no engine, no socket.
type DSResult struct {
	Ops, RangePairs  int64
	NsPerOp          float64
	AllocsPerOp      float64
	RangePairsPerS   float64 // pairs a Range call delivers per second of its time
	ScansPerKop      float64
	ExaminedPerFreed float64
	UnreclaimedMean  float64
	Invalid          int64
	FirstInvalid     error
}

// ProbeDS replays w's stream straight into a ds.Map on 2 tids (one
// goroutine each) for d. TTLs do not exist at this layer and are dropped.
func ProbeDS(w *Workload, sh Shape, seed int64, d time.Duration, spans *Spans) (*DSResult, error) {
	const tids = 2
	m, err := ds.NewMap(w.Structure, ds.Config{Scheme: sh.Scheme, Core: core.Options{Threads: tids}})
	if err != nil {
		return nil, err
	}
	var pairs []ds.KV
	for _, k := range w.PrefillKeys(seed) {
		pairs = append(pairs, ds.KV{Key: k, Val: ValueOf(k)})
	}
	m.Fill(pairs)
	s := m.(ds.Instrumented).Scheme()
	ranger, _ := m.(ds.Ranger)
	scans := func() core.ScanStats {
		if sc, ok := s.(interface{ ScanStats() core.ScanStats }); ok {
			return sc.ScanStats()
		}
		return core.ScanStats{}
	}
	var unrec Recorder
	stop := sampleEvery(10*time.Millisecond, func() { unrec.Add(int64(core.TotalUnreclaimed(s, tids))) })
	res := &DSResult{}
	var ops, rpairs, rns, invalid atomic.Int64
	var errMu sync.Mutex
	sc0 := scans()
	var elapsed time.Duration
	mallocs, _ := allocDelta(func() {
		start := time.Now()
		end := start.Add(d)
		var wg sync.WaitGroup
		for tid := 0; tid < tids; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				g := NewGen(w, seed*1000+int64(tid))
				var n int64
				var out []ibr.Pair
				for ; ; n++ {
					if n%64 == 0 && !time.Now().Before(end) {
						break
					}
					req := g.Next()
					sampled := spans != nil && n%64 == 1
					var t0 time.Time
					if sampled || req.Op == ibr.OpRange {
						t0 = time.Now()
					}
					var resp ibr.Response
					switch req.Op {
					case ibr.OpGet:
						resp.Status = ibr.StatusNotFound
						if v, ok := m.Get(tid, req.Key); ok {
							resp = ibr.Response{Status: ibr.StatusOK, Val: v}
						}
					case ibr.OpPut:
						resp = ibr.Response{Status: ibr.StatusExists}
						if m.Insert(tid, req.Key, req.Val) {
							resp = ibr.Response{Status: ibr.StatusOK, Val: req.Val}
						}
					case ibr.OpDel:
						resp.Status = ibr.StatusNotFound
						if m.Remove(tid, req.Key) {
							resp.Status = ibr.StatusOK
						}
					case ibr.OpRange:
						if ranger == nil {
							resp.Status = ibr.StatusUnsupported
							break
						}
						out = out[:0]
						ranger.Range(tid, req.Key, req.KeyHi, func(k, v uint64) bool {
							out = append(out, ibr.Pair{Key: k, Val: v})
							return true
						})
						resp = ibr.Response{Status: ibr.StatusOK, Pairs: out}
						rns.Add(int64(time.Since(t0)))
						rpairs.Add(int64(len(out)))
					}
					if sampled {
						spans.Add(Span{Name: "ds." + req.Op.String(), Process: "probe.ds", Start: t0, Dur: time.Since(t0)})
					}
					if err := Validate(req, resp); err != nil {
						invalid.Add(1)
						errMu.Lock()
						if res.FirstInvalid == nil {
							res.FirstInvalid = err
						}
						errMu.Unlock()
					}
				}
				ops.Add(n)
			}(tid)
		}
		wg.Wait()
		elapsed = time.Since(start)
	})
	stop()
	sc1 := scans()
	res.Ops, res.RangePairs, res.Invalid = ops.Load(), rpairs.Load(), invalid.Load()
	if res.Ops == 0 {
		return nil, fmt.Errorf("ds probe completed no ops")
	}
	res.NsPerOp = float64(elapsed) / float64(res.Ops)
	res.AllocsPerOp = float64(mallocs) / float64(res.Ops)
	if n := rns.Load(); n > 0 {
		res.RangePairsPerS = float64(res.RangePairs) / time.Duration(n).Seconds()
	}
	res.ScansPerKop = 1000 * float64(sc1.Scans-sc0.Scans) / float64(res.Ops)
	if f := sc1.Freed - sc0.Freed; f > 0 {
		res.ExaminedPerFreed = float64(sc1.Scanned-sc0.Scanned) / float64(f)
	}
	res.UnreclaimedMean = unrec.Mean()
	return res, nil
}

// EngineResult is the engine probe's outcome: Engine.DoContext in
// process, no socket, with the observability layer on as ibrd ships it.
type EngineResult struct {
	Ops                int64
	NsPerOp            float64
	OffNsPerOp         float64 // NsPerOp of the twin engine with observability off
	ObsDeltaNs         float64 // median over slice pairs of on minus off ns per op
	AllocsPerOp        float64
	BytesPerOp         float64
	QueueDepthMean     float64
	Shed               uint64
	ExpiredPerS        float64
	RetiredExpiryShare float64
	RangeLegs          uint64
	UnderScanHW        int64
	SelfNs             *Recorder // DoContext span minus its joined exec span
	Loops              []*Stats  // every slice's closed loop, both engines
}

func newEngine(w *Workload, sh Shape, withObs bool) (*ibr.Engine, error) {
	cfg := ibr.EngineConfig{Structure: w.Structure, Scheme: sh.Scheme, Shards: sh.Shards, WorkersPerShard: sh.Workers}
	if withObs {
		cfg.Obs = &ibr.ObsOptions{} // ibrd's defaults
	}
	return ibr.NewEngine(cfg)
}

// tracedEvery returns a request stream that stamps every 64th request with
// a fresh non-zero trace ID when tracing (ids are caller-unique).
func tracedEvery(next func() ibr.Request, caller int, on bool) func() ibr.Request {
	var n uint64
	return func() ibr.Request {
		r := next()
		n++
		if on && n%64 == 1 {
			r.TraceID = uint64(caller+1)<<40 | n
		}
		return r
	}
}

// engineSlices is how many slices the engine probe runs on each engine.
const engineSlices = 6

// ProbeEngine drives Engine.DoContext from 2 submitters on two engines,
// one with the observability layer on and a twin with it off, for d each:
// engineSlices slices of d/engineSlices per engine, alternating off, on,
// on, off, off, on, ..., so that a drift in the host's speed falls on both
// alike. Both engines see the same seeded streams. The on engine's figures
// are the result; the twin gives the on-minus-off cost of observability,
// the median over the pairs of adjacent slices.
func ProbeEngine(w *Workload, sh Shape, seed int64, d time.Duration, spans *Spans) (*EngineResult, error) {
	const submitters = 2
	var (
		engs [2]*ibr.Engine // [0] observability off, [1] on
		gens [2][submitters]func() ibr.Request
	)
	for i := range engs {
		eng, err := newEngine(w, sh, i == 1)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		engs[i] = eng
		if err := Prefill(engineDoer(eng), 1, w.PrefillKeys(seed)); err != nil {
			return nil, fmt.Errorf("engine prefill: %w", err)
		}
		for j := range gens[i] {
			gens[i][j] = tracedEvery(NewGen(w, seed*1000+int64(j)).Next, j, spans != nil && i == 1)
		}
	}
	on := engs[1]
	stats := func() (q int, sum shardSum) {
		for _, s := range on.Stats() {
			q += s.QueueDepth
			sum.add(s)
		}
		return q, sum
	}
	_, s0 := stats()
	res := &EngineResult{}
	var (
		qd             Recorder
		roots          Spans
		nsPerOp        [2][]float64
		ops            [2]int64
		elapsed        [2]time.Duration
		mallocs, bytes uint64
	)
	for k := 0; k < 2*engineSlices; k++ {
		i := (k + 1) / 2 % 2
		loop := &ClosedLoop{
			Duration: d / engineSlices, Conns: 1, DepthPerConn: submitters, SkipLatency: true, Do: engineDoer(engs[i]),
			NewNext: func(j int) func() ibr.Request { return gens[i][j] },
		}
		stop := func() {}
		if i == 1 {
			if spans != nil {
				loop.OnDone = func(req ibr.Request, sent, done time.Time) {
					if req.TraceID != 0 {
						roots.Add(Span{Name: "Engine.DoContext", Process: "probe.engine", Start: sent, Dur: done.Sub(sent), TraceID: req.TraceID})
					}
				}
			}
			stop = sampleEvery(10*time.Millisecond, func() { q, _ := stats(); qd.Add(int64(q)) })
		}
		// Every slice starts from a collected heap, so neither engine
		// inherits the other's garbage.
		var st *Stats
		m, b := allocDelta(func() { st = loop.Run() })
		stop()
		if i == 1 {
			mallocs, bytes = mallocs+m, bytes+b
		}
		res.Loops = append(res.Loops, st)
		n := st.Completed.Load()
		if n == 0 {
			return nil, fmt.Errorf("engine probe slice completed no ops")
		}
		ops[i] += n
		elapsed[i] += st.Elapsed
		nsPerOp[i] = append(nsPerOp[i], float64(st.Elapsed)/float64(n))
	}
	_, s1 := stats()
	res.Ops = ops[1]
	res.NsPerOp = float64(elapsed[1]) / float64(ops[1])
	res.OffNsPerOp = float64(elapsed[0]) / float64(ops[0])
	var deltas []float64
	for m := range nsPerOp[1] {
		deltas = append(deltas, nsPerOp[1][m]-nsPerOp[0][m])
	}
	res.ObsDeltaNs = median(deltas)
	res.AllocsPerOp = float64(mallocs) / float64(res.Ops)
	res.BytesPerOp = float64(bytes) / float64(res.Ops)
	res.QueueDepthMean = qd.Mean()
	res.Shed = s1.Shed - s0.Shed
	res.ExpiredPerS = float64(s1.Expired-s0.Expired) / elapsed[1].Seconds()
	if r := (s1.RetiredUser - s0.RetiredUser) + (s1.RetiredExpiry - s0.RetiredExpiry); r > 0 {
		res.RetiredExpiryShare = float64(s1.RetiredExpiry-s0.RetiredExpiry) / float64(r)
	}
	res.RangeLegs = s1.RangeOps - s0.RangeOps
	res.UnderScanHW = s1.UnderScanHW
	if spans != nil {
		joined, err := joinRecorder(on, roots.List())
		if err != nil {
			return nil, err
		}
		res.SelfNs = SelfTimes(joined)
		for _, s := range joined {
			spans.Add(s)
		}
	}
	return res, nil
}

func engineDoer(eng *ibr.Engine) Doer {
	return func(_ int, req ibr.Request) (ibr.Response, error) { return eng.DoContext(bgctx, req) }
}

// shardSum totals the engine counters the probe reports.
type shardSum struct {
	Shed, Expired, RetiredUser, RetiredExpiry, RangeOps uint64
	UnderScanHW                                         int64
}

func (t *shardSum) add(s server.ShardStats) {
	t.Shed += s.Shed
	t.Expired += s.Expired
	t.RetiredUser += s.RetiredUser
	t.RetiredExpiry += s.RetiredExpiry
	t.RangeOps += s.RangeOps
	t.UnderScanHW = max(t.UnderScanHW, s.UnderScanHW)
}

// joinRecorder joins spans to the exec spans in eng's flight recorder.
func joinRecorder(eng *ibr.Engine, roots []Span) ([]Span, error) {
	var buf bytes.Buffer
	if err := eng.Obs().Recorder().WriteTraceJSON(&buf); err != nil {
		return nil, err
	}
	exec, err := ExecSpans(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return Join(roots, exec), nil
}

// WireResult is the wire probe's outcome: Client.DoContext against an
// in-process Server on loopback.
type WireResult struct {
	Ops                     int64
	NsPerOp                 float64
	AllocsPerOp, BytesPerOp float64
	RetriesPerKop           float64
	SelfNs                  *Recorder // client span minus its joined exec span
	Loop                    *Stats    // the callers' closed loop
}

// ProbeWire serves an engine (observability on, as ibrd ships) on a
// loopback listener in process and drives it through conns clients with
// depth requests outstanding on each, for d.
func ProbeWire(w *Workload, sh Shape, seed int64, d time.Duration, conns, depth int, spans *Spans) (*WireResult, error) {
	eng, err := newEngine(w, sh, true)
	if err != nil {
		return nil, err
	}
	srv := ibr.NewServer(eng, ibr.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	served := make(chan struct{})
	// Serve's error after Shutdown closed the listener is expected.
	go func() { _ = srv.Serve(ln); close(served) }()
	defer func() { srv.Shutdown(); <-served }()
	var clients []*ibr.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := ibr.DialServer(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	do := func(conn int, req ibr.Request) (ibr.Response, error) { return clients[conn].DoContext(bgctx, req) }
	if err := Prefill(do, conns, w.PrefillKeys(seed)); err != nil {
		return nil, fmt.Errorf("wire prefill: %w", err)
	}
	var roots Spans
	trace := spans != nil
	loop := &ClosedLoop{
		Duration: d, Conns: conns, DepthPerConn: depth, SkipLatency: true, Do: do,
		NewNext: func(i int) func() ibr.Request {
			return tracedEvery(NewGen(w, seed*1000+int64(i)).Next, i, trace)
		},
	}
	if trace {
		loop.OnDone = func(req ibr.Request, sent, done time.Time) {
			if req.TraceID != 0 {
				roots.Add(Span{Name: "Client.DoContext", Process: "probe.wire", Start: sent, Dur: done.Sub(sent), TraceID: req.TraceID})
			}
		}
	}
	var st *Stats
	var retries0, retries1 uint64
	for _, c := range clients {
		retries0 += c.Retries()
	}
	mallocs, bytes := allocDelta(func() { st = loop.Run() })
	for _, c := range clients {
		retries1 += c.Retries()
	}
	res := &WireResult{Ops: st.Completed.Load(), Loop: st}
	if res.Ops == 0 {
		return nil, fmt.Errorf("wire probe completed no ops")
	}
	res.NsPerOp = float64(st.Elapsed) / float64(res.Ops)
	res.AllocsPerOp = float64(mallocs) / float64(res.Ops)
	res.BytesPerOp = float64(bytes) / float64(res.Ops)
	res.RetriesPerKop = 1000 * float64(retries1-retries0) / float64(res.Ops)
	if trace {
		joined, err := joinRecorder(eng, roots.List())
		if err != nil {
			return nil, err
		}
		res.SelfNs = SelfTimes(joined)
		for _, s := range joined {
			spans.Add(s)
		}
	}
	return res, nil
}
