package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ibr"
)

// Config is the benchmark's constants file (perfbench/config.json): the
// daemon's shape, the generator's shape, and every workload's mix, offered
// rates and latency limits.
type Config struct {
	// Shape is the scheme and shard/worker layout of the daemon and of the
	// in-process probes; every other ibrd flag stays at its default.
	Shape Shape `json:"shape"`
	// Conns is the number of client connections (≤ nproc).
	Conns int `json:"conns"`
	// PeakDepthPerConn is the closed loop's outstanding requests per conn.
	PeakDepthPerConn int `json:"peak_depth_per_conn"`
	// OpenWorkersPerConn bounds the open loop's outstanding requests per
	// conn; a request due while all of them are busy waits, and that wait
	// is part of its latency.
	OpenWorkersPerConn int `json:"open_workers_per_conn"`
	// Setups is how many daemon launches (+ prefill) a run times; setup_s
	// is their median.
	Setups int `json:"setups"`
	// VarsSampleMs is the /debug/vars sampling period.
	VarsSampleMs int `json:"vars_sample_ms"`
	// Phase shares of --seconds.
	PeakShare   float64 `json:"peak_share"`
	FixedShare  float64 `json:"fixed_share"`
	LadderShare float64 `json:"ladder_share"`
	// MinClassSamples is the fewest latency samples a class may have in
	// the fixed-rate phase for the run to count.
	MinClassSamples int `json:"min_class_samples"`

	Workloads []Workload `json:"workloads"`
}

// Workload is one traffic mix.
type Workload struct {
	Name      string  `json:"name"`
	Structure string  `json:"structure"`
	Keys      uint64  `json:"keys"`    // key range [0, Keys)
	Prefill   float64 `json:"prefill"` // fraction of the range PUT during set-up
	// Op shares; they sum to 1.
	Get   float64 `json:"get"`
	Put   float64 `json:"put"`
	Del   float64 `json:"del"`
	Range float64 `json:"range"`
	// TTLMs arms a server-side TTL on every measured PUT (0 = none).
	TTLMs int `json:"ttl_ms"`
	// Span is a RANGE's key width (KeyHi = Key + Span - 1).
	Span uint64 `json:"span"`
	// FixedRate is the fixed-rate phase's offered load, ops/s.
	FixedRate float64 `json:"fixed_rate"`
	// Ladder is the capacity search's offered rates, ascending, ops/s.
	Ladder []float64 `json:"ladder"`
	// P99LimitUs is each present class's p99 limit for a ladder rung to
	// pass, µs, keyed by class name.
	P99LimitUs map[string]float64 `json:"p99_limit_us"`
}

// LoadConfig reads and checks the constants file.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range c.Workloads {
		if err := c.Workloads[i].check(); err != nil {
			return nil, fmt.Errorf("%s: workload %q: %w", path, c.Workloads[i].Name, err)
		}
	}
	return &c, nil
}

// Workload returns the named workload.
func (c *Config) Workload(name string) (*Workload, error) {
	var names []string
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
		names = append(names, c.Workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w *Workload) check() error {
	s := w.Get + w.Put + w.Del + w.Range
	if s < 0.999 || s > 1.001 {
		return fmt.Errorf("op shares sum to %v, want 1", s)
	}
	if w.Keys == 0 || w.Keys >= 1<<40 {
		return fmt.Errorf("keys %d out of range", w.Keys)
	}
	if w.Range > 0 && (w.Span == 0 || w.Span > w.Keys) {
		return fmt.Errorf("range span %d invalid for %d keys", w.Span, w.Keys)
	}
	if w.FixedRate <= 0 || len(w.Ladder) == 0 {
		return fmt.Errorf("needs a fixed rate and a ladder")
	}
	for _, c := range w.Classes() {
		if w.P99LimitUs[ClassNames[c]] <= 0 {
			return fmt.Errorf("no p99 limit for class %s", ClassNames[c])
		}
	}
	return nil
}

// Latency classes.
const (
	ClassGet = iota
	ClassWrite
	ClassRange
	NumClasses
)

// ClassNames are the classes' names in metric names and config keys.
var ClassNames = [NumClasses]string{"get", "write", "range"}

// ClassOf maps an op to its latency class.
func ClassOf(op ibr.Op) int {
	switch op {
	case ibr.OpGet:
		return ClassGet
	case ibr.OpRange:
		return ClassRange
	}
	return ClassWrite
}

// Classes lists the classes the workload's mix contains.
func (w *Workload) Classes() []int {
	var cs []int
	if w.Get > 0 {
		cs = append(cs, ClassGet)
	}
	if w.Put+w.Del > 0 {
		cs = append(cs, ClassWrite)
	}
	if w.Range > 0 {
		cs = append(cs, ClassRange)
	}
	return cs
}

// ValueOf is the value convention every PUT (prefill and measured) uses,
// so any answer carrying a value can be checked against its key.
func ValueOf(key uint64) uint64 { return 2*key + 1 }

// Gen draws a workload's request stream from a seeded source: the same
// seed yields the same requests in the same order.
type Gen struct {
	w   *Workload
	rng *rand.Rand
	ttl time.Duration
}

// NewGen returns a generator for w seeded with seed.
func NewGen(w *Workload, seed int64) *Gen {
	return &Gen{w: w, rng: rand.New(rand.NewSource(seed)), ttl: time.Duration(w.TTLMs) * time.Millisecond}
}

// Next returns the stream's next request.
func (g *Gen) Next() ibr.Request {
	w := g.w
	p := g.rng.Float64()
	switch {
	case p < w.Range:
		lo := uint64(g.rng.Int63n(int64(w.Keys - w.Span + 1)))
		return ibr.Request{Op: ibr.OpRange, Key: lo, KeyHi: lo + w.Span - 1}
	case p < w.Range+w.Get:
		return ibr.Request{Op: ibr.OpGet, Key: g.key()}
	case p < w.Range+w.Get+w.Put:
		k := g.key()
		return ibr.Request{Op: ibr.OpPut, Key: k, Val: ValueOf(k), TTL: g.ttl}
	default:
		return ibr.Request{Op: ibr.OpDel, Key: g.key()}
	}
}

func (g *Gen) key() uint64 { return uint64(g.rng.Int63n(int64(g.w.Keys))) }

// PrefillKeys returns the keys the set-up PUTs (without TTL): each key of
// the range independently with probability Prefill, in ascending order.
func (w *Workload) PrefillKeys(seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, int(float64(w.Keys)*w.Prefill)+16)
	for k := uint64(0); k < w.Keys; k++ {
		if rng.Float64() < w.Prefill {
			keys = append(keys, k)
		}
	}
	return keys
}

// ErrBusy marks a BUSY answer: a failed op, but not a wrong one.
var ErrBusy = fmt.Errorf("BUSY")

// Validate checks one response against its request. It returns ErrBusy
// for a BUSY answer (a failed op) and a descriptive error for any answer
// the server must never give: a status outside the op's allowed set, a
// GET or PUT value that breaks the 2k+1 convention, or a RANGE result
// that is not strictly ascending, leaves [Key, KeyHi], or carries a wrong
// value.
func Validate(req ibr.Request, resp ibr.Response) error {
	if resp.Status == ibr.StatusBusy {
		return ErrBusy
	}
	bad := func(format string, a ...any) error {
		return fmt.Errorf("%v key %d: %s", req.Op, req.Key, fmt.Sprintf(format, a...))
	}
	switch req.Op {
	case ibr.OpGet:
		switch resp.Status {
		case ibr.StatusOK:
			if resp.Val != ValueOf(req.Key) {
				return bad("value %d, want %d", resp.Val, ValueOf(req.Key))
			}
		case ibr.StatusNotFound:
		default:
			return bad("status %v", resp.Status)
		}
	case ibr.OpPut:
		switch resp.Status {
		case ibr.StatusOK:
			if resp.Val != req.Val {
				return bad("echoed value %d, want %d", resp.Val, req.Val)
			}
		case ibr.StatusExists:
		default:
			return bad("status %v", resp.Status)
		}
	case ibr.OpDel:
		if resp.Status != ibr.StatusOK && resp.Status != ibr.StatusNotFound {
			return bad("status %v", resp.Status)
		}
	case ibr.OpRange:
		if resp.Status != ibr.StatusOK {
			return bad("status %v", resp.Status)
		}
		for i, p := range resp.Pairs {
			if p.Key < req.Key || p.Key > req.KeyHi {
				return bad("pair %d key %d outside [%d, %d]", i, p.Key, req.Key, req.KeyHi)
			}
			if i > 0 && p.Key <= resp.Pairs[i-1].Key {
				return bad("pair %d key %d not above %d", i, p.Key, resp.Pairs[i-1].Key)
			}
			if p.Val != ValueOf(p.Key) {
				return bad("pair %d key %d value %d, want %d", i, p.Key, p.Val, ValueOf(p.Key))
			}
		}
	default:
		return bad("unexpected op")
	}
	return nil
}
