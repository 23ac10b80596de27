package main

import (
	"math"
	"slices"
	"time"
)

// sample is one logical transaction as the generator saw it. Latency
// runs from the moment the transaction was started (closed loop) or
// due (open loop) to its commit acknowledgement, so it includes every
// certification-abort retry and, in the open loop, any time the
// transaction waited for a free worker.
type sample struct {
	update  bool
	ok      bool  // committed; false for errors and unknown outcomes
	latency int64 // nanoseconds
	aborts  int32 // certification aborts retried before the outcome
}

// percentile returns the exact nearest-rank p-quantile (0 < p <= 1) of
// sorted: the smallest value with at least p of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// latencies returns the sorted latencies of the committed samples of
// one class.
func latencies(ss []sample, update bool) []int64 {
	out := make([]int64, 0, len(ss))
	for _, s := range ss {
		if s.ok && s.update == update {
			out = append(out, s.latency)
		}
	}
	slices.Sort(out)
	return out
}

// goodput is the number of committed transactions whose latency met
// limit, per second of window. Failed transactions never count.
func goodput(ss []sample, limit time.Duration, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	good := 0
	for _, s := range ss {
		if s.ok && s.latency <= int64(limit) {
			good++
		}
	}
	return float64(good) / window.Seconds()
}

// commits counts the committed samples and the aborts they retried.
func commits(ss []sample) (n, aborts int64) {
	for _, s := range ss {
		if s.ok {
			n++
			aborts += int64(s.aborts)
		}
	}
	return n, aborts
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
