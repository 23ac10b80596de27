package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{0.01, 10}, {0.10, 10}, {0.11, 20}, {0.50, 50}, {0.51, 60},
		{0.90, 90}, {0.99, 100}, {1.00, 100},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// A thousand samples 1..1000: p99 is the 990th, with ten beyond it.
	var big []int64
	for i := int64(1); i <= 1000; i++ {
		big = append(big, i)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestLatenciesSplitClassesAndDropFailures(t *testing.T) {
	ss := []sample{
		{update: false, ok: true, latency: 30},
		{update: true, ok: true, latency: 5},
		{update: false, ok: true, latency: 10},
		{update: false, ok: false, latency: 1}, // failed: no latency sample
		{update: true, ok: true, latency: 7},
	}
	reads, updates := latencies(ss, false), latencies(ss, true)
	if len(reads) != 2 || reads[0] != 10 || reads[1] != 30 {
		t.Errorf("read latencies = %v, want [10 30]", reads)
	}
	if len(updates) != 2 || updates[0] != 5 || updates[1] != 7 {
		t.Errorf("update latencies = %v, want [5 7]", updates)
	}
}

func TestGoodputCountsOnlyCommitsWithinTheLimit(t *testing.T) {
	limit := 5 * time.Millisecond
	ss := []sample{
		{ok: true, latency: int64(time.Millisecond)},
		{ok: true, latency: int64(limit)},     // exactly at the limit: counts
		{ok: true, latency: int64(limit) + 1}, // one nanosecond over: a miss
		{ok: false, latency: 1},               // failed: never counts
		{ok: true, update: true, latency: int64(2 * time.Millisecond), aborts: 3},
	}
	if got := goodput(ss, limit, 2*time.Second); got != 1.5 {
		t.Errorf("goodput = %g/s, want 3 good commits over 2 s = 1.5/s", got)
	}
	if got := goodput(ss, limit, 0); got != 0 {
		t.Errorf("goodput over an empty window = %g, want 0", got)
	}
	n, aborts := commits(ss)
	if n != 4 || aborts != 3 {
		t.Errorf("commits = %d (aborts %d), want 4 (3)", n, aborts)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func TestQuietestSlicesArePooledExactly(t *testing.T) {
	ms := int64(time.Millisecond)
	mk := func(steal int64, lats ...int64) slice {
		var ss []sample
		for _, l := range lats {
			ss = append(ss, sample{ok: true, latency: l * ms})
		}
		return slice{
			steal: steal,
			phase: phase{samples: ss, elapsed: time.Second},
			d:     delta{self: procSample{cpu: time.Duration(len(lats)) * time.Millisecond}},
		}
	}
	// Six slices; the hypervisor stole CPU during four of them, which
	// ran slow. The quietest third, ceil(6/3) = 2 slices, have steal 0
	// and 1: the first and the fourth, in run order.
	slices := []slice{
		mk(0, 1, 2, 3),
		mk(90, 40, 50),
		mk(70, 30),
		mk(1, 4, 5, 6, 7),
		mk(40, 20, 20),
		mk(50, 30, 30),
	}
	q := quietest(slices)
	if len(q) != 2 || q[0].steal != 0 || q[1].steal != 1 {
		t.Fatalf("quietest picked steal %v", []int64{q[0].steal, q[len(q)-1].steal})
	}
	p := pool(q, 5*time.Millisecond)
	// Pooled reads of 1..7 ms over 2 s: the five of 1..5 ms meet the
	// 5 ms limit.
	if p.goodput != 2.5 {
		t.Errorf("pooled goodput = %g/s, want 5 good commits / 2 s", p.goodput)
	}
	if p.readP50 != 4 || p.readP99 != 7 {
		t.Errorf("pooled read p50/p99 = %g/%g ms, want 4/7", p.readP50, p.readP99)
	}
	if p.cpuPerTxn != 1000 {
		t.Errorf("pooled cpu = %g us/txn, want 1000", p.cpuPerTxn)
	}
	if p.updates != 0 || p.updateP99 != 0 {
		t.Errorf("no updates ran, got %d with p99 %g", p.updates, p.updateP99)
	}
	if !positive(1) || positive(0) || positive(math.Inf(1)) || positive(math.NaN()) {
		t.Error("positive misclassifies")
	}
	// Ties at the third's steal all count: here every slice but one.
	flat := []slice{mk(0, 1), mk(2, 1), mk(0, 1), mk(0, 1), mk(0, 1), mk(0, 1)}
	if got := len(quietest(flat)); got != 5 {
		t.Errorf("quietest of five steal-free slices and one stolen = %d slices, want 5", got)
	}
	if sliceCount(1200*time.Millisecond, 500*time.Millisecond) != 2 || sliceCount(time.Millisecond, time.Second) != 1 {
		t.Error("sliceCount")
	}
}
