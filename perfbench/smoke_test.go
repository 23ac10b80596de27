package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// The workloads of BENCHMARK.json are the ones the command runs, and
// each records its latency limit and fixed offered rate.
func TestBenchmarkFileRecordsEachWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		sp := specs[i]
		if w.Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, sp.name)
		}
		for _, want := range []string{
			fmt.Sprintf("limit %d ms", sp.limit.Milliseconds()),
			fmt.Sprintf("open loop %.0f tps", sp.rate),
		} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not record %q", w.Name, w.Why, want)
			}
		}
	}
}

// Every workload, run tiny, emits exactly the metrics BENCHMARK.json
// names, each with its unit, and passes its correctness checks.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters")
	}
	f := readBenchmarkFile(t)
	bin := t.TempDir()
	for _, b := range []struct{ out, dir, pkg string }{
		{"replicadb", "..", "./cmd/replicadb"},
		{"perfbench", ".", "."},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, b.out), b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.out, err, out)
		}
	}
	for _, sp := range specs {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": f.EndToEnd, "1": f.PerLayer} {
			t.Run(sp.name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"),
					"-replicadb", filepath.Join(bin, "replicadb"), "-dir", t.TempDir(),
					"--workload", sp.name, "--seed", "3", "--seconds", "3", "--trace", trace)
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
