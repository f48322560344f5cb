package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts operations attempted and failed across all phases. A
// failure is an error, a refusal (there are no retries) or a wrong reply.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     string
}

func (t *tally) ok(n int) { t.attempted.Add(int64(n)) }

// fail counts n attempted operations as failed and keeps the first cause.
func (t *tally) fail(n int, format string, args ...any) {
	t.attempted.Add(int64(n))
	t.failed.Add(int64(n))
	t.mu.Lock()
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

func (t *tally) firstFailure() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

func (t *tally) failFrac() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed.Load()) / float64(a)
}

// samples is a set of durations with nearest-rank percentiles.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct returns the nearest-rank p-quantile (0 < p <= 1) of sorted s.
func (s samples) pct(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts the samples strictly above the p-quantile's rank.
func (s samples) beyond(p float64) int {
	return len(s) - int(math.Ceil(p*float64(len(s))))
}

// tailMean is the mean of the samples beyond the p-quantile's rank of
// sorted s (the quantile itself if none are).
func (s samples) tailMean(p float64) time.Duration {
	if n := s.beyond(p); n > 0 {
		return s[len(s)-n:].mean()
	}
	return s.pct(p)
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a non-empty float slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
