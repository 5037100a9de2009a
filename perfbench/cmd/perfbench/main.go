// Command perfbench is the serving benchmark: it drives a separately
// launched ibrd over loopback through the public client and prints every
// metric by name with its unit, then one JSON result line.
//
//	perfbench -build .bench_build -workload get-heavy -seed 1 -seconds 20 -trace 0
//
// It runs from the repository root and launches the ibrd binary in the
// build directory's bin/. With -trace 0 it runs the end-to-end phases
// (set-up, closed-loop peak, fixed-rate open loop, capacity ladder); with
// -trace 1 it runs the layer probes (ds, engine, wire) and the traced
// daemon run instead, and writes the span file into the build directory's
// traces/. The workloads, rates, ladders and latency limits come from
// perfbench/config.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"ibr/perfbench/bench"
)

func main() {
	var (
		build    = flag.String("build", "", "build directory holding bin/ibrd")
		workload = flag.String("workload", "", "workload name (see perfbench/config.json)")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = layer probes and the traced run; 0 = end-to-end run")
	)
	flag.Parse()
	if err := run(*build, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

const configPath = "perfbench/config.json"

func run(build, workload string, seed int64, seconds float64, trace int) error {
	cfg, err := bench.LoadConfig(configPath)
	if err != nil {
		return err
	}
	w, err := cfg.Workload(workload)
	if err != nil {
		return err
	}
	if build == "" {
		return fmt.Errorf("-build is required")
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	cfg.Conns = min(cfg.Conns, runtime.NumCPU())
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	// The generator's own heap is a few hundred MiB at most; collecting it
	// rarely keeps its GC work out of the measured latencies.
	debug.SetGCPercent(400)
	o := &bench.Options{Cfg: cfg, W: w, Seed: seed, Seconds: seconds,
		Ibrd: filepath.Join(build, "bin", "ibrd"), TraceDir: filepath.Join(build, "traces")}
	var res *bench.Result
	if trace == 1 {
		res, err = bench.RunTraced(o)
	} else {
		res, err = bench.RunE2E(o)
	}
	if err != nil {
		return err
	}
	for _, m := range append(res.Metrics, res.Extra...) {
		fmt.Printf("%s %s = %.6g %s\n", w.Name, m.Name, m.Value, m.Unit)
	}
	fmt.Printf("%s attempted = %d, failed = %d\n", w.Name, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("%s PROBLEM: %s\n", w.Name, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct(), "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
