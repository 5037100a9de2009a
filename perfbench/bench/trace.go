package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer, or one exec span
// joined to it from the program's own trace.
type Span struct {
	Name    string
	Process string // the track group: "loadgen", "ibrd", "probe.engine", ...
	Start   time.Time
	Dur     time.Duration
	TraceID uint64
	// Child is the joined exec span's duration (0 when none was found).
	Child time.Duration
}

// Spans keeps spans in memory until the run ends.
type Spans struct {
	mu   sync.Mutex
	list []Span
}

// Add records s.
func (t *Spans) Add(s Span) {
	t.mu.Lock()
	t.list = append(t.list, s)
	t.mu.Unlock()
}

// List returns the recorded spans.
func (t *Spans) List() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.list
}

// ExecSpans parses a Perfetto JSON document as served by /debug/trace and
// returns each traced op's exec duration by trace ID.
func ExecSpans(doc []byte) (map[uint64]time.Duration, error) {
	var d struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Dur  float64         `json:"dur"` // µs
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("trace JSON: %w", err)
	}
	out := map[uint64]time.Duration{}
	for _, ev := range d.TraceEvents {
		if ev.Name != "op" || ev.Ph != "X" {
			continue
		}
		var a struct {
			TraceID string `json:"trace_id"`
		}
		if json.Unmarshal(ev.Args, &a) != nil || len(a.TraceID) < 3 {
			continue
		}
		id, err := strconv.ParseUint(a.TraceID[2:], 16, 64)
		if err != nil || id == 0 {
			continue
		}
		out[id] = time.Duration(ev.Dur * 1e3)
	}
	return out, nil
}

// Join attaches each span's exec child by trace ID and returns the spans
// that found one.
func Join(spans []Span, exec map[uint64]time.Duration) []Span {
	var joined []Span
	for _, s := range spans {
		if d, ok := exec[s.TraceID]; ok && s.TraceID != 0 {
			s.Child = d
			joined = append(joined, s)
		}
	}
	return joined
}

// SelfTimes returns each joined span's self time: its duration minus the
// part its exec child covers.
func SelfTimes(joined []Span) *Recorder {
	r := &Recorder{}
	for _, s := range joined {
		r.Add(int64(s.Dur - s.Child))
	}
	return r
}

// WriteTrace writes spans as a Perfetto / chrome://tracing JSON document:
// one process track per Process, a complete slice per span, and each
// joined exec child as a nested slice ending with its parent (the
// program's clock is not the benchmark's, so the child is placed at the
// end of the interval it must lie in; its duration is exact).
func WriteTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var (
		evs  []event
		pids = map[string]int{}
		t0   time.Time
	)
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	// Concurrent spans overlap; a thread track must nest, so each span
	// takes the first lane of its process that is free at its start.
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	lanes := map[string][]time.Time{}
	for _, s := range sorted {
		pid, ok := pids[s.Process]
		if !ok {
			pid = len(pids) + 1
			pids[s.Process] = pid
			evs = append(evs, event{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Process}})
		}
		tid := 0
		for tid < len(lanes[s.Process]) && lanes[s.Process][tid].After(s.Start) {
			tid++
		}
		if tid == len(lanes[s.Process]) {
			lanes[s.Process] = append(lanes[s.Process], time.Time{})
		}
		lanes[s.Process][tid] = s.Start.Add(s.Dur)
		tid++
		ts := us(s.Start.Sub(t0))
		args := map[string]any{}
		if s.TraceID != 0 {
			args["trace_id"] = fmt.Sprintf("0x%016x", s.TraceID)
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", TS: ts, Dur: us(s.Dur), Pid: pid, Tid: tid, Args: args})
		if s.Child > 0 {
			evs = append(evs, event{Name: "exec", Ph: "X", TS: ts + us(s.Dur-s.Child), Dur: us(s.Child),
				Pid: pid, Tid: tid, Args: args})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}
