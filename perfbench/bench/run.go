package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ibr"
)

// Metric is one named, measured number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is one run's outcome. Metrics are the numbers the run reports in
// its result line; Extra are printed beside them for a reader.
type Result struct {
	Attempted, Failed int64
	Problems          []string // each one makes the run incorrect
	Metrics           []Metric
	Extra             []Metric
}

// Correct reports whether the run saw no problem at all.
func (r *Result) Correct() bool { return len(r.Problems) == 0 }

func (r *Result) metric(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, v, unit})
}

func (r *Result) extra(name string, v float64, unit string) {
	r.Extra = append(r.Extra, Metric{name, v, unit})
}

func (r *Result) problem(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// count folds a phase's request counts and failures into the result. A
// BUSY answer is a failed op; a wrong answer or a broken connection also
// makes the run incorrect.
func (r *Result) count(phase string, st *Stats) {
	r.Attempted += st.Attempted.Load()
	r.Failed += st.Failed.Load()
	if n := st.Failed.Load() - st.Busy.Load(); n > 0 {
		r.problem("%s: %d of %d ops answered wrongly or lost (%d invalid answers); first: %v",
			phase, n, st.Attempted.Load(), st.Invalid.Load(), st.FirstErr())
	}
}

// stop drains d and records a drain that does not reach 0 blocks
// unreclaimed as a problem.
func (r *Result) stop(d *Daemon) {
	if _, err := d.Stop(); err != nil {
		r.problem("drain: %v", err)
	}
}

// Options is one invocation.
type Options struct {
	Cfg      *Config
	W        *Workload
	Seed     int64
	Seconds  float64
	Ibrd     string // path to the ibrd binary
	TraceDir string // where the traced run writes its span file
}

func (o *Options) dur(share float64) time.Duration {
	return time.Duration(o.Seconds * share * float64(time.Second))
}

func (o *Options) ibrdArgs() []string {
	return []string{"-r", o.W.Structure, "-d", o.Cfg.Shape.Scheme,
		"-shards", fmt.Sprint(o.Cfg.Shape.Shards), "-workers", fmt.Sprint(o.Cfg.Shape.Workers)}
}

// seedFor derives an independent stream seed for one phase and caller.
func seedFor(seed int64, phase, caller int) int64 {
	return seed*1_000_003 + int64(phase)*10_007 + int64(caller)
}

// Prefill PUTs keys (value 2k+1, no TTL) over conns connections with 32
// requests outstanding per connection.
func Prefill(do Doer, conns int, keys []uint64) error {
	ch := make(chan uint64)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for i := 0; i < conns*32; i++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for k := range ch {
				req := ibr.Request{Op: ibr.OpPut, Key: k, Val: ValueOf(k)}
				resp, err := do(conn, req)
				if err == nil && resp.Status != ibr.StatusOK {
					err = fmt.Errorf("prefill PUT %d: %v", k, resp.Status)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}(i % conns)
	}
	for _, k := range keys {
		ch <- k
	}
	close(ch)
	wg.Wait()
	return first
}

// setUp launches the daemon and prefills it, returning the daemon and the
// seconds that took.
func setUp(o *Options, keys []uint64) (*Daemon, float64, error) {
	t0 := time.Now()
	d, err := StartDaemon(o.Ibrd, o.ibrdArgs(), o.Cfg.Conns)
	if err != nil {
		return nil, 0, err
	}
	if err := Prefill(d.Do, o.Cfg.Conns, keys); err != nil {
		d.Kill()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// served is what the daemon did during one load phase.
type served struct {
	ops               uint64
	cpu               time.Duration
	v0, v1            *Vars
	unreclaimed, live Recorder
	lagMax            uint64
	loadgenCPU        time.Duration
	wall              time.Duration // from the v0 read to the v1 read
}

func (s *served) cpuPerOp() float64 { return s.cpu.Seconds() * 1e6 / float64(s.ops) }
func (s *served) mallocsPerOp() float64 {
	return float64(s.v1.Mem.Mallocs-s.v0.Mem.Mallocs) / float64(s.ops)
}

// gcCPUFrac returns the share of the daemon's available CPU time its
// garbage collector used in the cycles that ended during the phase, over
// the phase's length. memstats.GCCPUFraction is cumulative from the
// process's start and updated as each cycle ends (at LastGC), so the GC's
// CPU time up to the last cycle, in shares of all CPUs, is
// GCCPUFraction × (LastGC − start).
func (s *served) gcCPUFrac(started time.Time) float64 {
	gc := func(v *Vars) float64 {
		if v.Mem.NumGC == 0 {
			return 0
		}
		return v.Mem.GCCPUFraction * time.Duration(int64(v.Mem.LastGC)-started.UnixNano()).Seconds()
	}
	return (gc(s.v1) - gc(s.v0)) / s.wall.Seconds()
}

// measure runs phase against d, sampling /debug/vars every period.
func measure(d *Daemon, period time.Duration, phase func()) (*served, error) {
	s := &served{}
	var err error
	t0 := time.Now()
	if s.v0, err = d.Vars(); err != nil {
		return nil, err
	}
	c0, err := d.CPU()
	if err != nil {
		return nil, err
	}
	l0 := selfCPU()
	var sampleErr error
	stop := sampleEvery(period, func() {
		v, err := d.Vars()
		if err != nil {
			sampleErr = err
			return
		}
		s.unreclaimed.Add(int64(v.Ibrd.Unreclaimed))
		s.live.Add(int64(v.Ibrd.Live))
		s.lagMax = max(s.lagMax, v.Ibrd.MaxEpochLag)
	})
	phase()
	stop()
	if sampleErr != nil {
		return nil, sampleErr
	}
	s.loadgenCPU = selfCPU() - l0
	c1, err := d.CPU()
	if err != nil {
		return nil, err
	}
	if s.v1, err = d.Vars(); err != nil {
		return nil, err
	}
	s.wall = time.Since(t0)
	s.cpu = c1 - c0
	s.ops = s.v1.Ibrd.Ops - s.v0.Ibrd.Ops
	if s.ops == 0 {
		return nil, fmt.Errorf("daemon served no ops in the phase")
	}
	return s, nil
}

// selfCPU returns this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (o *Options) open(d *Daemon, rate float64, dur time.Duration, phase int) *OpenLoop {
	return &OpenLoop{Rate: rate, Duration: dur, Conns: o.Cfg.Conns, WorkersPerConn: o.Cfg.OpenWorkersPerConn,
		Next: NewGen(o.W, seedFor(o.Seed, phase, 0)).Next, Do: d.Do}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// latencies reports each present class's p50 and p99 (µs) over the whole
// phase and its sample count as extras, and checks every class has enough
// samples.
func (r *Result) latencies(o *Options, prefix string, st *Stats) {
	for _, c := range o.W.Classes() {
		rec := &st.Lat[c]
		name := prefix + ClassNames[c]
		r.extra(name+"_p50_us", us(rec.Quantile(0.5)), "us")
		r.extra(name+"_p99_us", us(rec.Quantile(0.99)), "us")
		r.extra(name+"_samples", float64(rec.Count()), "count")
		if rec.Count() < o.Cfg.MinClassSamples {
			r.problem("%s: %d samples, need %d", name, rec.Count(), o.Cfg.MinClassSamples)
		}
	}
}

// checkGenerator flags an open-loop phase whose generator fell behind.
func (r *Result) checkGenerator(phase string, st *Stats) {
	if n := st.Unsent.Load(); n > 0 {
		r.problem("%s: generator fell behind its schedule, %d of %d requests never sent", phase, n, st.Scheduled)
	}
}

// peakBursts is how many closed-loop peak bursts an end-to-end run makes.
const peakBursts = 3

// RunE2E is one end-to-end run: set up the daemon Setups times, then,
// against the last one, a closed-loop peak burst, a fixed-rate open-loop
// phase, a second peak burst, an open-loop capacity ladder and a third
// peak burst, then drain it.
//
// The result line carries the end-to-end metrics that hold still on a
// shared host: set-up time; the daemon's CPU time, allocations, peak RSS
// and unreclaimed blocks per op at the fixed rate; and how busy the CPUs
// stay at peak. The throughputs and latencies are printed beside them
// under the names they have in the metric table; on a shared host they
// move by a fifth from one run to the next.
func RunE2E(o *Options) (*Result, error) {
	res := &Result{}
	keys := o.W.PrefillKeys(o.Seed)
	var setups []float64
	var d *Daemon
	for i := 0; i < o.Cfg.Setups; i++ {
		var secs float64
		var err error
		if d, secs, err = setUp(o, keys); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < o.Cfg.Setups-1 {
			res.stop(d)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.Kill()
		}
	}()

	period := time.Duration(o.Cfg.VarsSampleMs) * time.Millisecond
	// The closed-loop peak runs in peakBursts bursts spread over the run;
	// each figure is the median over the bursts, so that one slow stretch
	// of the host moves it little. peak_cpu_busy_frac is the share of the
	// host's unstolen CPU time that ibrd and the generator used together:
	// with 2x16 requests outstanding both have work at all times unless
	// something makes ops wait.
	var peakRates, peakCPU, peakBusy []float64
	peakBurst := func(k int) error {
		var st *Stats
		sv, err := measure(d, period, func() {
			st = (&ClosedLoop{
				Duration: o.dur(o.Cfg.PeakShare / peakBursts), Conns: o.Cfg.Conns, DepthPerConn: o.Cfg.PeakDepthPerConn, Do: d.Do,
				NewNext: func(i int) func() ibr.Request { return NewGen(o.W, seedFor(o.Seed, 1, 1000*k+i)).Next },
			}).Run()
		})
		if err != nil {
			return err
		}
		res.count(fmt.Sprintf("peak burst %d", k+1), st)
		peakRates = append(peakRates, st.Rate())
		peakCPU = append(peakCPU, sv.cpuPerOp())
		// The CPU time the host did not steal during the burst.
		avail := float64(runtime.NumCPU())*sv.wall.Seconds() - float64(st.Steal)*clockTick.Seconds()
		peakBusy = append(peakBusy, (sv.cpu+sv.loadgenCPU).Seconds()/avail)
		return nil
	}
	if err := peakBurst(0); err != nil {
		return nil, err
	}

	var fixed *Stats
	sv, err := measure(d, period, func() {
		fixed = o.open(d, o.W.FixedRate, o.dur(o.Cfg.FixedShare), 2).Run()
	})
	if err != nil {
		return nil, err
	}
	res.count("fixed-rate", fixed)
	res.checkGenerator("fixed-rate", fixed)

	if err := peakBurst(1); err != nil {
		return nil, err
	}
	capacity, rungs := o.ladder(d, res, fixed)
	if err := peakBurst(2); err != nil {
		return nil, err
	}

	rss, err := d.PeakRSS()
	if err != nil {
		return nil, err
	}
	stopped = true
	res.stop(d)

	res.metric("setup_s", median(setups), "s")
	res.metric("server_cpu_us_per_op", sv.cpuPerOp(), "us")
	res.metric("server_allocs_per_op", sv.mallocsPerOp(), "count")
	res.metric("server_rss_mb", rss, "MiB")
	res.metric("unreclaimed_mean", sv.unreclaimed.Mean(), "blocks")
	res.metric("peak_cpu_busy_frac", median(peakBusy), "ratio")

	res.extra("peak_ops_s", median(peakRates), "ops/s")
	res.extra("peak_server_cpu_us_per_op", median(peakCPU), "us")
	res.extra("capacity_ops_s", capacity, "ops/s")
	res.latencies(o, "", fixed)
	res.extra("fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	res.extra("fixed_rate_offered", o.W.FixedRate, "ops/s")
	res.extra("fixed_rate_achieved", fixed.Rate(), "ops/s")
	res.extra("ladder_rungs_passed", float64(rungs), "count")
	res.extra("host_steal_frac", fixed.StealFrac(), "ratio")
	res.extra("loadgen.late_p99_us", us(fixed.Late.Quantile(0.99)), "us")
	res.extra("loadgen.cpu_us_per_op", sv.loadgenCPU.Seconds()*1e6/float64(fixed.Completed.Load()), "us")
	return res, nil
}

// loadRatio is an open-loop phase's worst, over its classes, of p99 over
// the class's limit and of the backlog at the schedule's end over one
// limit's worth of arrivals (a backlog larger than that is growing).
func (o *Options) loadRatio(st *Stats, rate float64) float64 {
	ratio := 0.0
	for _, c := range o.W.Classes() {
		limit := o.W.P99LimitUs[ClassNames[c]]
		ratio = max(ratio, us(st.Lat[c].Quantile(0.99))/limit, float64(st.BacklogEnd)/(rate*limit/1e6))
	}
	return ratio
}

// ladder runs the capacity ladder against d, ascending from the
// fixed-rate phase fixed, until a rung fails, and returns the capacity and
// the number of ladder rungs that passed.
//
// A rung passes with a load ratio (see loadRatio) of at most 1 and no
// failed or unsent op. A rung that fails while the host stole CPU time is
// run again (twice at most per ladder), so a burst of host stalls does not
// end the ladder. The capacity is the rate at which the ratio crosses 1,
// interpolated on log(ratio) between the last passing and the first
// failing rung, the fixed-rate phase counting as the rung below the
// ladder; with no failing rung it is the top rung's achieved rate.
// Interpolating keeps the estimate continuous: a rung that passes narrowly
// in one run and fails narrowly in the next moves it a little, not by a
// whole rung.
func (o *Options) ladder(d *Daemon, res *Result, fixed *Stats) (capacity float64, rungs int) {
	rungDur := o.dur(o.Cfg.LadderShare / float64(len(o.W.Ladder)))
	rung := func(i int, rate float64) (st *Stats, ratio float64, ok bool) {
		st = o.open(d, rate, rungDur, 3+i).Run()
		res.count(fmt.Sprintf("ladder %.0f ops/s", rate), st)
		ratio = o.loadRatio(st, rate)
		res.extra(fmt.Sprintf("ladder_%.0f_load_ratio", rate), ratio, "ratio")
		return st, ratio, st.Failed.Load() == 0 && st.Unsent.Load() == 0
	}
	prevRate, prevRatio := o.W.FixedRate, o.loadRatio(fixed, o.W.FixedRate)
	capacity = fixed.Rate()
	if prevRatio > 1 {
		// Even the fixed rate missed the limits: scale it down.
		return capacity / prevRatio, 0
	}
	retries := 2
	for i, rate := range o.W.Ladder {
		st, ratio, ok := rung(i, rate)
		for ; retries > 0 && (!ok || ratio > 1) && st.StealFrac() > 0; retries-- {
			st, ratio, ok = rung(i, rate)
		}
		if !ok {
			return capacity, rungs
		}
		if ratio > 1 {
			if prevRatio > 0 {
				f := math.Log(1/prevRatio) / math.Log(ratio/prevRatio)
				capacity += max(0, min(1, f)) * (rate - prevRate)
			}
			return capacity, rungs
		}
		capacity, rungs, prevRate, prevRatio = st.Rate(), i+1, rate, ratio
	}
	return capacity, rungs
}

// traceSlices is how many slices of each kind, untraced and traced, the
// traced run alternates to measure the tracing overhead.
const traceSlices = 4

// RunTraced is the traced run: the in-process layer probes, then the
// daemon at the fixed rate untraced, then alternating untraced slices and
// slices with a unique trace ID on every request, joined to the daemon's
// own op spans on /debug/trace.
func RunTraced(o *Options) (*Result, error) {
	res := &Result{}
	spans := &Spans{}
	probe := o.dur(0.1)

	dsr, err := ProbeDS(o.W, o.Cfg.Shape, seedFor(o.Seed, 10, 0), probe, spans)
	if err != nil {
		return nil, err
	}
	if dsr.Invalid > 0 {
		res.problem("ds probe: %d invalid answers; first: %v", dsr.Invalid, dsr.FirstInvalid)
	}
	eng, err := ProbeEngine(o.W, o.Cfg.Shape, seedFor(o.Seed, 11, 0), probe, spans)
	if err != nil {
		return nil, err
	}
	wire, err := ProbeWire(o.W, o.Cfg.Shape, seedFor(o.Seed, 12, 0), probe, o.Cfg.Conns, o.Cfg.PeakDepthPerConn, spans)
	if err != nil {
		return nil, err
	}
	for _, st := range eng.Loops {
		res.count("engine probe", st)
	}
	res.count("wire probe", wire.Loop)

	d, _, err := setUp(o, o.W.PrefillKeys(o.Seed))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.Kill()
		}
	}()
	peak := (&ClosedLoop{
		Duration: o.dur(0.1), Conns: o.Cfg.Conns, DepthPerConn: o.Cfg.PeakDepthPerConn, Do: d.Do,
		NewNext: func(i int) func() ibr.Request { return NewGen(o.W, seedFor(o.Seed, 19, i)).Next },
	}).Run()
	res.count("peak", peak)
	period := time.Duration(o.Cfg.VarsSampleMs) * time.Millisecond
	var plain *Stats
	svPlain, err := measure(d, period, func() { plain = o.open(d, o.W.FixedRate, o.dur(0.25), 20).Run() })
	if err != nil {
		return nil, err
	}
	res.count("untraced", plain)
	res.checkGenerator("untraced", plain)

	// The tracing overhead compares untraced and traced slices of the fixed
	// rate, alternating untraced, traced, traced, untraced, ..., so that a
	// drift in the host's speed falls on both alike. Every request of a
	// traced slice carries a unique trace ID and gets a root span.
	var (
		arms   [2][]*Stats // [0] untraced slices, [1] traced
		armCPU [2]time.Duration
		armOps [2]uint64
		vEnd   *Vars
		id     uint64
		nroots int
		rootMu sync.Mutex
	)
	roots := make([]Span, int(o.W.FixedRate*o.dur(0.25).Seconds())+1)
	for k := 0; k < 2*traceSlices; k++ {
		i := (k + 1) / 2 % 2
		loop := o.open(d, o.W.FixedRate, o.dur(0.25/(2*traceSlices)), 21+k)
		if i == 1 {
			next := loop.Next
			loop.Next = func() ibr.Request {
				r := next()
				id++
				r.TraceID = uint64(o.Seed&0xffff)<<40 | id
				return r
			}
			loop.OnDone = func(req ibr.Request, due, sent, done time.Time) {
				rootMu.Lock()
				if nroots < len(roots) {
					roots[nroots] = Span{Name: "Client.DoContext " + req.Op.String(), Process: "loadgen", Start: sent, Dur: done.Sub(sent), TraceID: req.TraceID}
					nroots++
				}
				rootMu.Unlock()
			}
		}
		var st *Stats
		sv, err := measure(d, period, func() { st = loop.Run() })
		if err != nil {
			return nil, err
		}
		phase := [2]string{"untraced slice", "traced slice"}[i]
		res.count(phase, st)
		res.checkGenerator(phase, st)
		arms[i] = append(arms[i], st)
		armCPU[i] += sv.cpu
		armOps[i] += sv.ops
		vEnd = sv.v1
	}
	doc, err := d.TraceJSON()
	if err != nil {
		return nil, err
	}
	exec, err := ExecSpans(doc)
	if err != nil {
		return nil, err
	}
	joined := Join(roots[:nroots], exec)
	if len(joined) == 0 {
		res.problem("traced run: no client span joined an ibrd op span")
	}
	var execNs Recorder
	for _, s := range joined {
		execNs.Add(int64(s.Child))
		spans.Add(s)
	}
	outside := SelfTimes(joined)
	stopped = true
	res.stop(d)

	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.TraceDir, fmt.Sprintf("%s-seed%d.json", o.W.Name, o.Seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	werr := WriteTrace(f, spans.List())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)

	v0, v1 := svPlain.v0, svPlain.v1
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a/b - 1
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops := float64(svPlain.ops)

	plainOnly := []*Stats{plain}
	res.metric("served.peak_ops_s", peak.Rate(), "ops/s")
	every := []int{ClassGet, ClassWrite, ClassRange}
	res.metric("served.p50_us", us(pool(plainOnly, every...).Quantile(0.5)), "us")
	res.metric("served.p99_us", us(pool(plainOnly, every...).Quantile(0.99)), "us")
	res.metric("served.write_p50_us", us(plain.Lat[ClassWrite].Quantile(0.5)), "us")
	res.metric("served.write_p99_us", us(plain.Lat[ClassWrite].Quantile(0.99)), "us")
	var failed, attempted int64
	for _, st := range append(append([]*Stats{peak, plain}, arms[0]...), arms[1]...) {
		failed += st.Failed.Load()
		attempted += st.Attempted.Load()
	}
	res.metric("served.fail_frac", float64(failed)/float64(max(attempted, 1)), "ratio")
	res.metric("host.steal_frac", plain.StealFrac(), "ratio")
	res.metric("ds.ns_per_op", dsr.NsPerOp, "ns")
	res.metric("ds.allocs_per_op", dsr.AllocsPerOp, "count")
	res.metric("ds.range_pairs_per_s", dsr.RangePairsPerS, "1/s")
	res.metric("core.scans_per_kop", dsr.ScansPerKop, "count")
	res.metric("core.examined_per_freed", dsr.ExaminedPerFreed, "ratio")
	res.metric("core.unreclaimed_mean", dsr.UnreclaimedMean, "blocks")
	res.metric("core.epoch_lag_max", float64(svPlain.lagMax), "epochs")
	res.metric("mem.live_slots_mean", svPlain.live.Mean(), "slots")
	res.metric("mem.pool_exhausted", float64(v1.Ibrd.PoolExhausted-v0.Ibrd.PoolExhausted), "count")
	res.metric("engine.ns_per_op", eng.NsPerOp, "ns")
	res.metric("engine.allocs_per_op", eng.AllocsPerOp, "count")
	res.metric("engine.bytes_per_op", eng.BytesPerOp, "B")
	res.metric("engine.self_p50_ns", float64(eng.SelfNs.Quantile(0.5)), "ns")
	res.metric("engine.queue_depth_mean", eng.QueueDepthMean, "requests")
	res.metric("engine.shed", float64(eng.Shed), "count")
	res.metric("engine.expired_per_s", eng.ExpiredPerS, "1/s")
	res.metric("engine.retired_expiry_share", eng.RetiredExpiryShare, "ratio")
	res.metric("engine.range_legs", float64(eng.RangeLegs), "count")
	res.metric("engine.under_scan_hw", float64(eng.UnderScanHW), "blocks")
	res.metric("obs.ns_per_op_delta", eng.ObsDeltaNs, "ns")
	res.metric("wire.ns_per_op", wire.NsPerOp, "ns")
	res.metric("wire.allocs_per_op", wire.AllocsPerOp, "count")
	res.metric("wire.bytes_per_op", wire.BytesPerOp, "B")
	res.metric("wire.self_p50_ns", float64(wire.SelfNs.Quantile(0.5)), "ns")
	res.metric("wire.retries_per_kop", wire.RetriesPerKop, "count")
	res.metric("wire.proto_dropped", float64(vEnd.Server.ConnsDroppedProto), "count")
	res.metric("wire.proto_rejected", float64(vEnd.Server.FramesRejected), "count")
	res.metric("ibrd.exec_p50_ns", float64(execNs.Quantile(0.5)), "ns")
	res.metric("ibrd.exec_p99_ns", float64(execNs.Quantile(0.99)), "ns")
	res.metric("ibrd.outside_exec_p50_us", us(outside.Quantile(0.5)), "us")
	res.metric("ibrd.gc_cpu_frac", svPlain.gcCPUFrac(d.Started), "ratio")
	res.metric("ibrd.gc_per_kop", 1000*float64(v1.Mem.NumGC-v0.Mem.NumGC)/ops, "count")
	res.metric("ibrd.scans_per_kop", 1000*float64(v1.Ibrd.Scans-v0.Ibrd.Scans)/ops, "count")
	res.metric("ibrd.examined_per_freed", div(float64(v1.Ibrd.ScanExamined-v0.Ibrd.ScanExamined), float64(v1.Ibrd.ScanFreed-v0.Ibrd.ScanFreed)), "ratio")
	res.metric("loadgen.late_p99_us", us(plain.Late.Quantile(0.99)), "us")
	res.metric("loadgen.cpu_us_per_op", svPlain.loadgenCPU.Seconds()*1e6/float64(plain.Completed.Load()), "us")
	res.metric("trace.overhead_frac_p50", frac(float64(pool(arms[1], every...).Quantile(0.5)), float64(pool(arms[0], every...).Quantile(0.5))), "ratio")
	res.metric("trace.overhead_frac_cpu", frac(float64(armCPU[1])/float64(armOps[1]), float64(armCPU[0])/float64(armOps[0])), "ratio")

	res.extra("trace.joined_spans", float64(len(joined)), "count")
	res.extra("trace.root_spans", float64(nroots), "count")
	res.extra("ds.ops", float64(dsr.Ops), "count")
	res.extra("engine.obs_off_ns_per_op", eng.OffNsPerOp, "ns")
	res.latencies(o, "untraced_", plain)
	return res, nil
}
