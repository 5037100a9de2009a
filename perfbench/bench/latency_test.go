package bench

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestRecorderExactPercentiles(t *testing.T) {
	var r Recorder
	// 1..1000 in shuffled order: the nearest-rank q-quantile is q*1000.
	xs := rand.New(rand.NewSource(1)).Perm(1000)
	for _, x := range xs {
		r.Add(int64(x + 1))
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.001, 1}, {0.0001, 1}} {
		if got := r.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := r.Mean(); got != 500.5 {
		t.Errorf("Mean = %v, want 500.5", got)
	}
	if r.Count() != 1000 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestRecorderSmallAndEmpty(t *testing.T) {
	var r Recorder
	if r.Quantile(0.5) != 0 || r.Mean() != 0 {
		t.Fatal("empty recorder must answer 0")
	}
	for _, x := range []int64{7, 3, 9, 3} {
		r.Add(x)
	}
	// Sorted: 3 3 7 9. Nearest rank: p50 = 2nd = 3, p75 = 3rd = 7, p99 = 4th = 9.
	if r.Quantile(0.5) != 3 || r.Quantile(0.75) != 7 || r.Quantile(0.99) != 9 {
		t.Fatalf("got p50=%d p75=%d p99=%d", r.Quantile(0.5), r.Quantile(0.75), r.Quantile(0.99))
	}
	// Adding after a query re-sorts.
	r.Add(1)
	if r.Quantile(0.2) != 1 {
		t.Fatalf("p20 after add = %d, want 1", r.Quantile(0.2))
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestGCCPUFracIsPhaseDelta checks that the GC share comes from the cycles
// that ended within the phase, not from GCCPUFraction's lifetime average.
func TestGCCPUFracIsPhaseDelta(t *testing.T) {
	started := time.Unix(1000, 0)
	vars := func(numGC uint32, lastGC time.Duration, frac float64) *Vars {
		v := &Vars{}
		v.Mem.NumGC, v.Mem.LastGC, v.Mem.GCCPUFraction = numGC, uint64(started.Add(lastGC).UnixNano()), frac
		return v
	}
	// 1% over the first 10s (0.1 share-seconds), 2% over the first 20s
	// (0.4): the 10s phase between them used 0.3, a share of 0.03.
	s := &served{v0: vars(1, 10*time.Second, 0.01), v1: vars(3, 20*time.Second, 0.02), wall: 10 * time.Second}
	if got := s.gcCPUFrac(started); math.Abs(got-0.03) > 1e-9 {
		t.Errorf("gcCPUFrac = %v, want 0.03", got)
	}
	// No cycle ended in the phase: no GC time in it, whatever the average.
	s = &served{v0: vars(3, 20*time.Second, 0.02), v1: vars(3, 20*time.Second, 0.02), wall: 5 * time.Second}
	if got := s.gcCPUFrac(started); got != 0 {
		t.Errorf("gcCPUFrac without a cycle = %v, want 0", got)
	}
	// Before the first cycle GCCPUFraction is 0 and LastGC unset.
	s = &served{v0: &Vars{}, v1: vars(1, 2*time.Second, 0.005), wall: 2 * time.Second}
	if got := s.gcCPUFrac(started); math.Abs(got-0.005) > 1e-9 {
		t.Errorf("gcCPUFrac from no cycle = %v, want 0.005", got)
	}
}
