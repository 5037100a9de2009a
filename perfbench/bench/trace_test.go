package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestJoinByTraceID(t *testing.T) {
	doc := []byte(`{"traceEvents":[
		{"name":"op","ph":"X","ts":10,"dur":1.5,"pid":1,"tid":0,"args":{"trace_id":"0x0000000000000007"}},
		{"name":"op","ph":"X","ts":12,"dur":2,"pid":1,"tid":1,"args":{"trace_id":"0x0000000000000009"}},
		{"name":"scan","ph":"X","ts":12,"dur":50,"pid":1,"tid":1,"args":{"trace_id":"0x0000000000000008"}},
		{"name":"epoch","ph":"C","ts":13,"pid":1,"tid":1,"args":{"value":3}}]}`)
	exec, err := ExecSpans(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec) != 2 || exec[7] != 1500*time.Nanosecond || exec[9] != 2*time.Microsecond {
		t.Fatalf("exec spans %v", exec)
	}
	t0 := time.Now()
	roots := []Span{
		{Name: "a", Process: "loadgen", Start: t0, Dur: 10 * time.Microsecond, TraceID: 7},
		{Name: "b", Process: "loadgen", Start: t0, Dur: 20 * time.Microsecond, TraceID: 8}, // no op span
		{Name: "c", Process: "loadgen", Start: t0.Add(time.Microsecond), Dur: 30 * time.Microsecond, TraceID: 9},
	}
	joined := Join(roots, exec)
	if len(joined) != 2 || joined[0].Child != 1500*time.Nanosecond || joined[1].Child != 2*time.Microsecond {
		t.Fatalf("joined %+v", joined)
	}
	self := SelfTimes(joined)
	if self.Quantile(0.5) != int64(8500) || self.Quantile(1) != int64(28000) {
		t.Fatalf("self times p50 %d max %d", self.Quantile(0.5), self.Quantile(1))
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, joined); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// process_name + 2 × (root + exec child); overlapping roots take
	// separate lanes, and each child nests inside its root.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("%d events, want 5", len(out.TraceEvents))
	}
	a, aExec, c, cExec := out.TraceEvents[1], out.TraceEvents[2], out.TraceEvents[3], out.TraceEvents[4]
	if a.Tid == c.Tid {
		t.Error("overlapping spans share a lane")
	}
	if aExec.TS < a.TS || aExec.TS+aExec.Dur > a.TS+a.Dur+1e-9 || aExec.Tid != a.Tid {
		t.Errorf("child %+v not inside root %+v", aExec, a)
	}
	if cExec.TS < c.TS || cExec.TS+cExec.Dur > c.TS+c.Dur+1e-9 || cExec.Tid != c.Tid {
		t.Errorf("child %+v not inside root %+v", cExec, c)
	}
}
