package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/repl/pipeline"
	"repro/internal/wire"
)

// window is the outside-in state of a cluster at one instant: each
// server's /proc counters and Stats, the generator's own /proc
// counters, and the WAL directories' total size.
type window struct {
	procs []procSample
	self  procSample
	stats []wire.StatsOK
	wal   int64
}

func snapshot(c *cluster) (window, error) {
	var w window
	var err error
	if w.stats, err = c.stats(); err != nil {
		return w, err
	}
	if w.procs, err = c.procs(); err != nil {
		return w, err
	}
	if w.self, err = readProc("self"); err != nil {
		return w, err
	}
	w.wal = c.walBytes()
	return w, nil
}

// delta is the difference of two windows of the same cluster.
type delta struct {
	procs []procSample
	self  procSample
	stats []wire.StatsOK
	wal   int64
}

func (a window) sub(b window) delta {
	d := delta{self: a.self.sub(b.self), wal: a.wal - b.wal}
	for i := range a.procs {
		d.procs = append(d.procs, a.procs[i].sub(b.procs[i]))
		s, o := a.stats[i], b.stats[i]
		x := wire.StatsOK{
			ReadCommits: s.ReadCommits - o.ReadCommits, UpdateCommits: s.UpdateCommits - o.UpdateCommits,
			Aborts: s.Aborts - o.Aborts, ReadNs: s.ReadNs - o.ReadNs, UpdateNs: s.UpdateNs - o.UpdateNs,
			LagCount: s.LagCount - o.LagCount, LagSumNs: s.LagSumNs - o.LagSumNs, LagMaxNs: s.LagMaxNs,
			Leading: s.Leading, ReplicaID: s.ReplicaID, ShardID: s.ShardID,
		}
		for k := range s.StageCounts {
			x.StageCounts[k] = s.StageCounts[k] - o.StageCounts[k]
			x.StageNs[k] = s.StageNs[k] - o.StageNs[k]
		}
		d.stats = append(d.stats, x)
	}
	return d
}

func (d delta) serverCPU() time.Duration {
	var t time.Duration
	for _, p := range d.procs {
		t += p.cpu
	}
	return t
}

// stageMeanUs is the cluster-wide mean of one commit-path stage, in
// microseconds; 0 when no server observed the stage.
func (d delta) stageMeanUs(stage int) float64 {
	var n, ns int64
	for _, s := range d.stats {
		n += s.StageCounts[stage]
		ns += s.StageNs[stage]
	}
	if n == 0 {
		return 0
	}
	return us(ns) / float64(n)
}

// primary reports whether server i leads its group: the certifier
// leader under Paxos, otherwise replica 0 of the group.
func (d delta) primary(paxos bool, i int) bool {
	if paxos {
		return d.stats[i].Leading
	}
	return d.stats[i].ReplicaID == 0
}

// traced measures the per-layer metrics. An untraced cluster runs the
// closed loop for a third of the measured time as the baseline for the
// tracing overhead; a traced cluster (server stage tracing on, a span
// around every client call) then runs the same closed loop followed by
// the open loop at the workload's fixed rate. The server counters are
// differenced over both traced phases, warm-ups excluded. Finally the
// replay probes and one model sweep run in process, and the spans are
// written to spansPath.
func (r *run) traced(spansPath string) error {
	n := sliceCount(r.secs/3, closedSlice)
	c, err := r.boot(false)
	if err != nil {
		return err
	}
	base, err := r.measure(c, n, false)
	if err != nil {
		return err
	}
	r.check(c)
	r.halt(c)

	if c, err = r.boot(true); err != nil {
		return err
	}
	defer r.halt(c)
	closed, err := r.measure(c, n, true)
	if err != nil {
		return err
	}
	rn := r.runner(c)
	r.count(openLoop(rn, r.st, r.seed.Uint64(), r.sp.rate, openWarmup, false))
	before, err := snapshot(c)
	if err != nil {
		return err
	}
	op := openLoop(rn, r.st, r.seed.Uint64(), r.sp.rate, r.secs-r.secs/3, true)
	r.count(op)
	after, err := snapshot(c)
	if err != nil {
		return err
	}
	r.check(c)
	r.halt(c)

	d, ss, spans, userBytes := after.sub(before), op.samples, op.spans, op.userByte
	for _, s := range closed {
		d = d.plus(s.d)
		ss = append(ss, s.phase.samples...)
		spans = append(spans, s.phase.spans...)
		userBytes += s.phase.userByte
	}
	r.putLayers(c, d, ss, spans, userBytes)

	gBase := pool(quietest(base), r.sp.limit).goodput
	gTraced := pool(quietest(closed), r.sp.limit).goodput
	r.put("trace.overhead_pct", "%", 100*(gBase-gTraced)/gBase)
	late := slices.Clone(op.late)
	slices.Sort(late)
	r.put("gen.late_p99_ms", "ms", ms(percentile(late, 0.99)))
	fmt.Printf("%s: quietest-slice goodput untraced %.0f/s, traced %.0f/s\n", r.sp.name, gBase, gTraced)

	rep, err := replay(r.st, r.seed.Uint64(), filepath.Join(r.dir, "replay-wal"))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for name, m := range rep {
		r.res.Metrics[name] = m
	}
	p, err := predictSweep(r.seed.Uint64())
	if err != nil {
		r.checks = append(r.checks, err.Error())
	}
	r.put("profiler.profile_ms", "ms", ms(int64(p.profile)))
	r.put("core.predict_us", "us", p.predictUs)
	r.put("cluster.sim_ms", "ms", p.simMs)
	r.put("cluster.sim_commits_per_s", "1/s", p.simCPS)
	r.put("core.max_err_pct", "%", p.maxErrPct)
	return writeSpans(spansPath, spans)
}

func (a delta) plus(b delta) delta {
	d := delta{self: a.self.add(b.self), wal: a.wal + b.wal}
	for i := range a.procs {
		d.procs = append(d.procs, a.procs[i].add(b.procs[i]))
		s, o := a.stats[i], b.stats[i]
		x := s
		x.ReadCommits += o.ReadCommits
		x.UpdateCommits += o.UpdateCommits
		x.Aborts += o.Aborts
		x.ReadNs += o.ReadNs
		x.UpdateNs += o.UpdateNs
		x.LagCount += o.LagCount
		x.LagSumNs += o.LagSumNs
		x.LagMaxNs = max(s.LagMaxNs, o.LagMaxNs)
		for k := range x.StageCounts {
			x.StageCounts[k] += o.StageCounts[k]
			x.StageNs[k] += o.StageNs[k]
		}
		d.stats = append(d.stats, x)
	}
	return d
}

// spanStats summarises the spans of one kind: count, mean and p99 in
// microseconds.
func spanStats(spans []span, keep func(span) bool) (n int, meanUs, p99Us float64) {
	var ds []int64
	var sum int64
	for _, s := range spans {
		if keep(s) {
			ds = append(ds, s.end-s.start)
			sum += s.end - s.start
		}
	}
	if len(ds) == 0 {
		return 0, 0, 0
	}
	slices.Sort(ds)
	return len(ds), us(sum) / float64(len(ds)), us(percentile(ds, 0.99))
}

func ofKind(k uint8) func(span) bool { return func(s span) bool { return s.kind == k } }

// putLayers derives the live per-layer metrics of the traced phases.
func (r *run) putLayers(c *cluster, d delta, ss []sample, spans []span, userBytes int64) {
	n, aborts := commits(ss)
	perTxn := func(x float64) float64 { return x / float64(max(n, 1)) }
	var updates int64
	for _, s := range ss {
		if s.ok && s.update {
			updates++
		}
	}

	for _, k := range []uint8{spanBegin, spanRead, spanWrite, spanCommit} {
		_, mean, p99 := spanStats(spans, ofKind(k))
		r.put("client."+spanNames[k]+"_us", "us", mean)
		r.put("client."+spanNames[k]+"_us.p99", "us", p99)
	}
	r.put("client.aborts_per_commit", "ratio", perTxn(float64(aborts)))

	var total, top, readCommits, readNs, updCommits, updNs, certAborts, lagN, lagNs, lagMax int64
	var sys, io int64
	var primCPU, backCPU time.Duration
	var prims, backs int
	for i, s := range d.stats {
		cm := s.ReadCommits + s.UpdateCommits
		total += cm
		top = max(top, cm)
		readCommits += s.ReadCommits
		readNs += s.ReadNs
		updCommits += s.UpdateCommits
		updNs += s.UpdateNs
		certAborts += s.Aborts
		lagN += s.LagCount
		lagNs += s.LagSumNs
		lagMax = max(lagMax, s.LagMaxNs)
		p := d.procs[i]
		sys += p.syscr + p.syscw
		io += p.rchar + p.wchar
		if d.primary(c.spec.paxos, i) {
			primCPU += p.cpu
			prims++
		} else {
			backCPU += p.cpu
			backs++
		}
	}
	r.put("lb.max_replica_share", "ratio", float64(top)/float64(max(total, 1)))
	r.put("server.syscalls_per_txn", "count", perTxn(float64(sys)))
	r.put("server.io_bytes_per_txn", "B", perTxn(float64(io)))
	r.put("gen.syscalls_per_txn", "count", perTxn(float64(d.self.syscr+d.self.syscw)))
	r.put("server.cpu_us_per_txn.primary", "us", perTxn(us(int64(primCPU))/float64(max(prims, 1))))
	r.put("server.cpu_us_per_txn.backup", "us", perTxn(us(int64(backCPU))/float64(max(backs, 1))))
	r.put("server.read_us", "us", us(readNs)/float64(max(readCommits, 1)))
	r.put("server.update_us", "us", us(updNs)/float64(max(updCommits, 1)))
	r.put("certifier.commit_ratio", "ratio", float64(updCommits)/float64(max(updCommits+certAborts, 1)))
	r.put("repl.lag_ms", "ms", ms(lagNs)/float64(max(lagN, 1)))
	r.put("repl.lag_max_ms", "ms", ms(lagMax))

	var stageSum float64
	for i, name := range pipeline.StageNames {
		m := d.stageMeanUs(i)
		stageSum += m
		r.put("stage."+name+"_us", "us", m)
	}
	r.put("wal.bytes_per_commit", "B", float64(d.wal)/float64(max(updates, 1)))
	r.put("wal.bytes_per_user_byte", "ratio", float64(d.wal)/float64(max(userBytes, 1)))

	// Router: update commits whose writes span shard groups take 2PC.
	var crossFrac, commit1, commit2 float64
	if c.router != nil {
		nUpd, _, _ := spanStats(spans, func(s span) bool { return s.kind == spanCommit && s.update })
		nCross, mean2, _ := spanStats(spans, func(s span) bool { return s.kind == spanCommit && s.cross })
		_, mean1, _ := spanStats(spans, func(s span) bool { return s.kind == spanCommit && s.update && !s.cross })
		crossFrac, commit1, commit2 = float64(nCross)/float64(max(nUpd, 1)), mean1, mean2
	}
	r.put("router.cross_frac", "ratio", crossFrac)
	r.put("router.commit_1pc_us", "us", commit1)
	r.put("router.commit_2pc_us", "us", commit2)

	// Attribution: a class's client span is the server's share plus
	// everything outside it (client library, wire, kernel, scheduling).
	_, readSpan, _ := spanStats(spans, ofKind(spanReadTxn))
	_, updSpan, _ := spanStats(spans, ofKind(spanUpdateTxn))
	serverRead := us(readNs) / float64(max(readCommits, 1))
	r.put("other_us.read", "us", readSpan-serverRead)
	r.put("other_us.update", "us", updSpan-stageSum)
	fmt.Printf("attribution (us)   %10s %12s %10s\n", "client", "server", "other")
	fmt.Printf("  read-only        %10.1f %12.1f %10.1f   (server = Stats read latency)\n", readSpan, serverRead, readSpan-serverRead)
	fmt.Printf("  update           %10.1f %12.1f %10.1f   (server = sum of stage means)\n", updSpan, stageSum, updSpan-stageSum)
	for i, name := range pipeline.StageNames {
		fmt.Printf("    stage %-8s %10.1f\n", name, d.stageMeanUs(i))
	}
}

// writeSpans writes the spans, one per line: transaction, kind, trace
// id, start and end in nanoseconds since the benchmark started.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "txn\tspan\ttrace\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.parent, spanNames[s.kind], s.trace, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
