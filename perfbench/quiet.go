package main

import (
	"fmt"
	"slices"
	"time"
)

// slice is one back-to-back slice of the closed-loop phase with its own
// counters. On a shared virtual machine the hypervisor takes the CPUs
// away in bursts ("steal"), and a slice that loses them reads slower
// for reasons outside the program. The end-to-end metrics therefore
// pool the raw samples of the quietest slices: those whose machine-wide
// steal is no more than that of the third-quietest part of the run.
type slice struct {
	steal int64 // /proc/stat steal ticks during the slice
	phase phase // the slice's raw outcome
	d     delta // the cluster's and the generator's counters over the slice
}

// quietest returns, in run order, every slice whose steal is at most
// the steal of the ceil(n/3)-th quietest slice: at least a third of the
// slices, and all of them on a quiet machine.
func quietest(ss []slice) []slice {
	if len(ss) == 0 {
		return nil
	}
	steal := make([]int64, len(ss))
	for i, s := range ss {
		steal[i] = s.steal
	}
	slices.Sort(steal)
	limit := steal[(len(ss)+2)/3-1]
	var q []slice
	for _, s := range ss {
		if s.steal <= limit {
			q = append(q, s)
		}
	}
	return q
}

// pooled is the closed-loop outcome of a set of slices, computed
// exactly from their raw samples.
type pooled struct {
	goodput    float64 // commits within the latency limit per second
	cpuPerTxn  float64 // microseconds
	readP50    float64 // milliseconds
	readP99    float64
	updateP50  float64
	updateP99  float64
	n, reads   int
	updates    int
	commits    int64
	elapsed    time.Duration
	stealTicks int64
}

func pool(ss []slice, limit time.Duration) pooled {
	var all []sample
	var p pooled
	var cpu time.Duration
	for _, s := range ss {
		all = append(all, s.phase.samples...)
		p.elapsed += s.phase.elapsed
		cpu += s.d.serverCPU() + s.d.self.cpu
		p.stealTicks += s.steal
	}
	p.n = len(ss)
	p.commits, _ = commits(all)
	p.goodput = goodput(all, limit, p.elapsed)
	p.cpuPerTxn = us(int64(cpu)) / float64(max(p.commits, 1))
	reads, updates := latencies(all, false), latencies(all, true)
	p.reads, p.updates = len(reads), len(updates)
	p.readP50, p.readP99 = ms(percentile(reads, 0.50)), ms(percentile(reads, 0.99))
	p.updateP50, p.updateP99 = ms(percentile(updates, 0.50)), ms(percentile(updates, 0.99))
	return p
}

func (p pooled) String() string {
	return fmt.Sprintf("%3d slices %6.2fs steal %4d  goodput %7.0f/s  cpu %6.1fus/txn  read p50/p99 %6.3f/%6.3fms (%d)  update p50/p99 %6.3f/%6.3fms (%d)",
		p.n, p.elapsed.Seconds(), p.stealTicks, p.goodput, p.cpuPerTxn, p.readP50, p.readP99, p.reads, p.updateP50, p.updateP99, p.updates)
}

// sliceCount is how many back-to-back slices of length s fill d (at
// least one).
func sliceCount(d, s time.Duration) int {
	return max(int(d/s), 1)
}
