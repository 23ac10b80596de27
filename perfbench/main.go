// Command perfbench is replicadb's benchmark. It boots real
// multi-process clusters with `replicadb serve`, drives them from this
// single generator process with two workers, and times every call it
// makes into internal/client, internal/router and the model packages
// from outside. Server-side layers are read only through what the
// servers export: the Stats RPC, /proc/<pid> and WAL directory sizes.
//
//	perfbench -replicadb <binary> --workload browse --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it boots three clusters in turn, drives each with a
// closed loop cut into half-second slices, and reports the end-to-end
// metrics (quiet.go says which slices count). With --trace 1 it runs
// with server stage tracing and client spans on, adds an open loop at
// the workload's fixed rate and the in-process layer replays, and
// reports the per-layer metrics. The last line of standard output is
// the JSON result; a failed correctness check exits 1 after it.
// perfbench/run.sh builds both binaries and runs this command from a
// checkout's root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/repl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Run shape. Every timed phase is preceded by a warm-up whose
// transactions count only as attempted (and failed, if they fail).
const (
	setupRepeats = 3 // untraced runs boot this many clusters
	predictRuns  = 5 // untraced runs repeat each mix's model pipeline
	closedWarmup = 1500 * time.Millisecond
	openWarmup   = 1 * time.Second

	// Closed loops run as back-to-back slices (quiet.go).
	closedSlice = 500 * time.Millisecond
)

// metric is one named value in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	sp      spec
	st      stream
	seed    *stats.Rand // source of every phase's seed
	bin     string
	dir     string
	secs    time.Duration
	res     result
	checks  []string // failed correctness checks
	written []write  // every committed write to the current cluster
}

// live tracks the clusters booted so a signal can stop them.
var live struct {
	sync.Mutex
	cs map[*cluster]bool
}

func (r *run) boot(traced bool) (*cluster, error) {
	c, err := startCluster(r.bin, r.dir, r.sp, traced)
	if err != nil {
		return nil, err
	}
	live.Lock()
	live.cs[c] = true
	live.Unlock()
	return c, nil
}

func (r *run) halt(c *cluster) {
	live.Lock()
	defer live.Unlock()
	c.stop()
	delete(live.cs, c)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name: "+strings.Join(names(), ", "))
		seed         = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 20, "measured seconds: of the closed loop (untraced); of the closed then the open loop, a third and two thirds (traced)")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		bin          = flag.String("replicadb", "", "path to the replicadb binary (required)")
		dir          = flag.String("dir", ".bench_build/run", "scratch directory for server logs, WALs and spans")
	)
	flag.Parse()
	sp, ok := specByName(*workloadName)
	if !ok || *bin == "" || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -replicadb, --workload (%s), --seconds >= 2 and --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	st, err := newStream(sp)
	if err != nil {
		fatal(err)
	}
	// The run directory holds server logs and WALs. It is removed after
	// a correct run and kept, for diagnosis, after a failed one.
	runDir := filepath.Join(*dir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	live.cs = map[*cluster]bool{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.Lock()
		for c := range live.cs {
			c.stop()
		}
		os.RemoveAll(runDir)
		os.Exit(1)
	}()

	r := &run{
		sp: sp, st: st, seed: stats.NewRand(*seed), bin: *bin, dir: runDir,
		secs: time.Duration(*seconds) * time.Second,
		res:  result{Metrics: map[string]metric{}},
	}
	h := startHost(runDir)
	if *trace == 0 {
		err = r.untraced()
	} else {
		err = r.traced(filepath.Join(*dir, "spans-"+sp.name+".tsv"))
	}
	if err != nil {
		fatal(err)
	}
	h.print(sp)
	r.res.Correct = len(r.checks) == 0
	for _, c := range r.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed; server logs in %s\n", runDir)
		os.Exit(1)
	}
	os.RemoveAll(runDir)
}

func names() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// fatal reports a run that could not produce a result: no result line
// is printed and the exit code is 1.
func fatal(err error) {
	live.Lock()
	for c := range live.cs {
		c.stop()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func (r *run) put(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) runner(c *cluster) runner {
	rn := runner{sys: c.sys}
	if c.router != nil {
		m := c.router.Map()
		rn.locate = m.Locate
	}
	return rn
}

// count folds a phase into the attempted/failed totals.
func (r *run) count(p phase) {
	r.res.Attempted += p.attempted
	r.res.Failed += p.failed
	r.written = append(r.written, p.written...)
	if p.firstErr != nil {
		fmt.Printf("first failure: %v\n", p.firstErr)
	}
}

// untraced measures the end-to-end metrics. It boots setupRepeats
// clusters one after another and runs an equal share of the closed-loop
// slices on each, so neither set-up time nor throughput rests on one
// cluster instance.
func (r *run) untraced() error {
	var setups, rss []float64
	var slices []slice
	per := sliceCount(r.secs, closedSlice) / setupRepeats
	for i := 0; i < setupRepeats; i++ {
		c, err := r.boot(false)
		if err != nil {
			return err
		}
		setups = append(setups, c.setup.Seconds())
		ss, err := r.measure(c, per, false)
		if err != nil {
			r.halt(c)
			return err
		}
		slices = append(slices, ss...)
		r.check(c)
		m, err := c.peakRSSMB()
		r.halt(c)
		if err != nil {
			return err
		}
		rss = append(rss, m)
		fmt.Printf("%s cluster %d: setup %.3fs, peak RSS %.1f MiB, %v\n", r.sp.name, i, setups[i], m, pool(ss, r.sp.limit))
	}
	sweep, err := r.predictTime()
	if err != nil {
		r.checks = append(r.checks, err.Error())
	}

	q := pool(quietest(slices), r.sp.limit)
	fmt.Printf("%s closed loop, all:      %v\n", r.sp.name, pool(slices, r.sp.limit))
	fmt.Printf("%s closed loop, quietest: %v\n", r.sp.name, q)
	fmt.Printf("%s model sweep %.3fs\n", r.sp.name, sweep)
	r.put("setup_s", "s", median(setups))
	r.put("goodput_tps", "1/s", q.goodput)
	r.put("cpu_us_per_txn", "us", q.cpuPerTxn)
	r.put("read_p50_ms", "ms", q.readP50)
	r.put("read_p99_ms", "ms", q.readP99)
	r.put("update_p50_ms", "ms", q.updateP50)
	r.put("update_p99_ms", "ms", q.updateP99)
	r.put("rss_mb", "MiB", median(rss))
	r.put("predict_s", "s", sweep)
	return nil
}

// measure warms the cluster up and runs n closed-loop slices on it,
// recording spans when traced.
func (r *run) measure(c *cluster, n int, traced bool) ([]slice, error) {
	rn := r.runner(c)
	r.count(closedLoop(rn, r.st, r.seed.Uint64(), closedWarmup, false))
	var out []slice
	for i := 0; i < n; i++ {
		steal := stealTicks()
		before, err := snapshot(c)
		if err != nil {
			return nil, err
		}
		p := closedLoop(rn, r.st, r.seed.Uint64(), closedSlice, traced)
		r.count(p)
		after, err := snapshot(c)
		if err != nil {
			return nil, err
		}
		out = append(out, slice{steal: stealTicks() - steal, phase: p, d: after.sub(before)})
	}
	return out, nil
}

// predictTime is the time the model sweep over every mix takes. Each
// mix's pipeline runs predictRuns times on the same inputs, from a
// collected heap, and contributes its cheapest run. The pipeline runs
// on one goroutine, so its time is measured as the benchmark process's
// user+system CPU time, which unlike wall time does not grow while the
// hypervisor has the CPU.
func (r *run) predictTime() (float64, error) {
	seed := r.seed.Uint64()
	var total float64
	for _, mix := range workload.All() {
		best := math.Inf(1)
		for i := 0; i < predictRuns; i++ {
			runtime.GC()
			before := processCPU()
			if _, err := predictMix(mix, seed); err != nil {
				return 0, err
			}
			best = min(best, (processCPU() - before).Seconds())
		}
		total += best
	}
	return total, nil
}

// processCPU is the benchmark process's user+system CPU time, at
// microsecond resolution.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check runs the correctness checks after the load: replicas (or shard
// groups) converge, and every row holds either its loaded value or a
// value that a committed transaction wrote to it. It then forgets the
// writes, ready for the next cluster.
func (r *run) check(c *cluster) {
	defer func() { r.written = nil }()
	if err := repl.CheckConvergence(c.sys, c.tables); err != nil {
		r.checks = append(r.checks, fmt.Sprintf("convergence: %v", err))
		return
	}
	if err := checkWrites(c.sys, c.tables, r.written); err != nil {
		r.checks = append(r.checks, err.Error())
	}
}

// checkWrites compares every table on replica 0 with the writes the
// generator saw. A row written only by committed transactions must hold
// one of their values; a row that an unknown-outcome transaction also
// wrote may instead hold the value it had before (its loaded value,
// when no other write landed); an unwritten row holds its loaded value.
func checkWrites(sys repl.System, tables []string, written []write) error {
	type key struct {
		table string
		row   int64
	}
	allowed := map[key]map[string]bool{}
	unsure := map[key]bool{}
	for _, w := range written {
		k := key{w.table, w.row}
		if allowed[k] == nil {
			allowed[k] = map[string]bool{}
		}
		allowed[k][w.value] = true
		unsure[k] = unsure[k] || w.unknown
	}
	for _, table := range tables {
		dump, err := sys.TableDump(0, table)
		if err != nil {
			return fmt.Errorf("dump %s: %w", table, err)
		}
		for row, v := range dump {
			k := key{table, row}
			loaded := v == loadedValue(table, row)
			switch vals := allowed[k]; {
			case vals == nil && !loaded:
				return fmt.Errorf("%s row %d holds %q, but no transaction wrote it", table, row, v)
			case vals != nil && !vals[v] && !(loaded && unsure[k]):
				return fmt.Errorf("%s row %d holds %q, not the value of any committed write to it", table, row, v)
			}
		}
		for k := range allowed {
			if _, ok := dump[k.row]; k.table == table && !ok {
				return fmt.Errorf("%s row %d is missing after committed writes", table, k.row)
			}
		}
	}
	return nil
}
