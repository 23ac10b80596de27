package main

import (
	"time"

	"repro/internal/workload"
)

// spec is one named workload: the cluster shape it boots, the mix its
// generator plays, and the service levels its goodput is judged by.
// The one-line reason for each lives beside its name in BENCHMARK.json.
type spec struct {
	name   string
	mix    string // workload mix id (workload.ByID)
	factor int    // catalog scale-down factor (1 = full size)

	replicas int  // replica processes per group
	shards   int  // shard groups; >1 routes through internal/router
	paxos    bool // replicate the certifier over the group (-paxos)
	durable  bool // -wal-dir and -fsync on every node
	batch    bool // -groupcommit

	limit time.Duration // latency limit a commit must meet to count as goodput
	rate  float64       // open-loop offered rate, transactions per second
}

var specs = []spec{
	{
		name: "browse", mix: "tpcw-browsing", factor: 1,
		replicas: 2, shards: 1,
		limit: 5 * time.Millisecond, rate: 2000,
	},
	{
		name: "order-durable", mix: "tpcw-ordering", factor: 10,
		replicas: 3, shards: 1, paxos: true, durable: true, batch: true,
		limit: 20 * time.Millisecond, rate: 700,
	},
	{
		name: "shard-2pc", mix: "tpcw-shopping", factor: 10,
		replicas: 1, shards: 2, batch: true,
		limit: 10 * time.Millisecond, rate: 1500,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) workloadMix() workload.Mix {
	m, ok := workload.ByID(s.mix)
	if !ok {
		panic("perfbench: unknown mix " + s.mix)
	}
	return m
}
