// Command perfbench is the repository benchmark. It measures the paper's
// pipeline end to end on three workloads — batch evaluation of an
// on-disk RGB test split, the same split with ground-truth silhouettes,
// and paced POST /rpc traffic against the sljserve server — and checks
// every output against a sequential reference. With -trace 1 it instead
// replays the workload's clips through each layer's public functions and
// reports per-layer times, counts and shares. README.md describes the
// workloads, the metrics and the layer map.
//
// Usage (from the repository root; run.sh builds and invokes this):
//
//	perfbench -workload eval-rgb -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		workload = flag.String("workload", "", "eval-rgb | eval-silhouette | serve-rpc")
		seed     = flag.Int64("seed", 1, "workload seed: fixes the corpus and the request mix")
		seconds  = flag.Float64("seconds", 24, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0 measures end to end; 1 runs the traced layer replay")
		state    = flag.String("state", ".perfbench", "scratch directory for the corpus and span dumps")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, state string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	gt := false
	switch workload {
	case "eval-rgb", "serve-rpc":
	case "eval-silhouette":
		gt = true
	default:
		return fmt.Errorf("unknown workload %q (want eval-rgb, eval-silhouette or serve-rpc)", workload)
	}
	// The generator and the system share the machine: never schedule more
	// OS threads than there are CPUs to run them.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	dir, err := os.MkdirTemp(state, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e, err := setup(workload, seed, gt, nproc, dir)
	if err != nil {
		return err
	}
	defer e.close()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case traced && workload == "serve-rpc":
		err = traceServe(e, d, res, filepath.Join(state, "traces"))
	case traced:
		err = traceEval(e, d, res, filepath.Join(state, "traces"))
	case workload == "serve-rpc":
		err = runServe(e, d, res)
	default:
		err = runEval(e, d, res)
	}
	if err != nil {
		return err
	}
	if traced {
		res.set("dbn.train_ms", "ms", e.trainMS)
	} else {
		res.set("setup_s", "s", e.setupS)
	}
	if err := e.checkAccounting(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: accounting:", err)
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// ---- statistics -------------------------------------------------------

// quantile returns the q-quantile of xs by nearest rank (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
