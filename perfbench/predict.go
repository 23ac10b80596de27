package main

import (
	"fmt"
	"math"
	"time"

	sim "repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/workload"
)

// The paper's pipeline as the benchmark runs it, for each of the five
// mixes: profile the mix on the standalone database, predict both
// replicated designs for 1..maxN replicas, and validate the
// multi-master prediction against the discrete-event simulation at
// simNs. The virtual-time windows keep a five-mix sweep under a second.
const (
	maxN       = 16
	profWarmup = 5.0  // virtual seconds
	profWindow = 20.0 // virtual seconds
	simWarmup  = 5.0
	simWindow  = 20.0
)

var simNs = []int{1, 4, 8}

// prediction is the outcome and cost of one pipeline sweep.
type prediction struct {
	profile   time.Duration // wall time of one mix's standalone profile
	predictUs float64       // mean wall time of one Predict call
	simMs     float64       // mean wall time of one simulation run
	simCPS    float64       // simulated commits per wall second
	maxErrPct float64       // worst |predicted - simulated| throughput error
}

// predictSweep runs the pipeline for every mix and checks that each
// output is finite and positive. Costs are means over the mixes; the
// error is the worst of them.
func predictSweep(seed uint64) (prediction, error) {
	var sum prediction
	mixes := workload.All()
	for _, mix := range mixes {
		p, err := predictMix(mix, seed)
		if err != nil {
			return sum, err
		}
		sum.profile += p.profile
		sum.predictUs += p.predictUs / float64(len(mixes))
		sum.simMs += p.simMs / float64(len(mixes))
		sum.simCPS += p.simCPS / float64(len(mixes))
		sum.maxErrPct = max(sum.maxErrPct, p.maxErrPct)
	}
	sum.profile /= time.Duration(len(mixes))
	return sum, nil
}

func predictMix(mix workload.Mix, seed uint64) (prediction, error) {
	var p prediction
	start := time.Now()
	params, _, err := profiler.Profile(mix, profiler.Options{Seed: seed, Warmup: profWarmup, Measure: profWindow})
	if err != nil {
		return p, fmt.Errorf("profile %s: %w", mix.ID(), err)
	}
	p.profile = time.Since(start)

	t0 := time.Now()
	preds := map[int]core.Prediction{}
	for n := 1; n <= maxN; n++ {
		mm, sm := core.PredictMM(params, n), core.PredictSM(params, n)
		preds[n] = mm
		for _, q := range []core.Prediction{mm, sm} {
			if !positive(q.Throughput) || !positive(q.ResponseTime) {
				return p, fmt.Errorf("%s %s N=%d: prediction %.4g tps, %.4g s is not finite and positive",
					mix.ID(), q.Design, n, q.Throughput, q.ResponseTime)
			}
		}
	}
	p.predictUs = us(int64(time.Since(t0))) / float64(2*maxN)

	var simWall time.Duration
	var simCommits int64
	for _, n := range simNs {
		t := time.Now()
		res, err := sim.Run(sim.Config{
			Mix: mix, Design: core.MultiMaster, Replicas: n,
			Seed: seed + uint64(n)*1000003, Warmup: simWarmup, Measure: simWindow,
		})
		simWall += time.Since(t)
		if err != nil {
			return p, fmt.Errorf("simulate %s N=%d: %w", mix.ID(), n, err)
		}
		if !positive(res.Throughput) {
			return p, fmt.Errorf("simulate %s N=%d: throughput %.4g is not finite and positive", mix.ID(), n, res.Throughput)
		}
		simCommits += res.Commits
		if e := 100 * math.Abs(preds[n].Throughput-res.Throughput) / res.Throughput; e > p.maxErrPct {
			p.maxErrPct = e
		}
	}
	p.simMs = ms(int64(simWall)) / float64(len(simNs))
	p.simCPS = float64(simCommits) / simWall.Seconds()
	return p, nil
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
