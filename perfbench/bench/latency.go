package bench

import (
	"math"
	"sort"
	"sync"
)

// Recorder keeps every latency sample it is given, raw, and answers exact
// nearest-rank percentiles over them. A phase records a few hundred
// thousand samples at most, so keeping them all costs a few MiB and buys
// percentiles with no bucketing error at all (a log2 histogram can misplace
// a p99 by up to 2x). Safe for concurrent Add.
type Recorder struct {
	mu     sync.Mutex
	xs     []int64
	sorted bool
}

// Add records one sample.
func (r *Recorder) Add(v int64) {
	r.mu.Lock()
	r.xs = append(r.xs, v)
	r.sorted = false
	r.mu.Unlock()
}

// Reserve makes room for n more samples, so a phase of known size never
// copies its samples while it runs.
func (r *Recorder) Reserve(n int) {
	r.mu.Lock()
	r.xs = append(make([]int64, 0, len(r.xs)+n), r.xs...)
	r.mu.Unlock()
}

// Count returns the number of samples recorded.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.xs)
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q of all samples at or below it. It returns 0 when
// no samples were recorded.
func (r *Recorder) Quantile(q float64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.xs)
	if n == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.xs, func(i, j int) bool { return r.xs[i] < r.xs[j] })
		r.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return r.xs[rank-1]
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (r *Recorder) Mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range r.xs {
		s += float64(x)
	}
	return s / float64(len(r.xs))
}

// median returns the median of xs (the mean of the middle two when their
// number is even; 0 when empty). It sorts xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
