// Command perfbench is the repository's benchmark: one process runs one
// named workload as a closed-loop batch job (one run in flight, two
// workers), checks every output, and prints the end-to-end metrics —
// or, with -trace 1, the per-layer metrics of a traced run — as the
// last line of standard output:
//
//	{"correct": true, "attempted": 84, "failed": 0, "metrics": {...}}
//
// attempted and failed count output checks, so failed/attempted is the
// share of checks that failed. Run it through run.sh, which builds it
// from the surrounding checkout:
//
//	bash perfbench/run.sh --workload fleet_mixed --seed 1 --seconds 35 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/sched"
)

// workers is the run's parallelism: fleet shards and report experiments
// both fan out over two workers, under GOMAXPROCS 2.
const workers = 2

// setupSamples is how many times set-up is repeated; setup_s is their
// median.
const setupSamples = 15

// minReps is the fewest timed repetitions a run makes, however long
// they take.
const minReps = 5

// bench is one workload.
type bench interface {
	// setup does the one-off preparation before the first session. It
	// is repeated setupSamples times and must leave the workload ready.
	setup() error
	// run is one untraced repetition. It returns the sessions delivered
	// and a verification step, run after the clock stops.
	run(c *checks) (int64, func(), error)
	// traced is one traced repetition. It returns the per-layer metrics
	// of that repetition and the wall time of its traced work (the work an
	// untraced repetition times), and leaves its spans in tr.
	traced(c *checks, tr *tracer) (map[string]float64, time.Duration, error)
	// groupKey names the trace's per-span group id ("cell", "experiment").
	groupKey() string
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: paper_report, fleet_mixed or fleet_flash_crowd_cdn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (fleet.Config.Seed; paper_report has fixed experiment seeds)")
	flag.Float64Var(&o.seconds, "seconds", 35, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for trace files")
	flag.Parse()
	o.trace = trace == 1

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newBench(o options) (bench, error) {
	switch o.workload {
	case "paper_report":
		return &reportBench{}, nil
	case "fleet_mixed":
		return newFleetBench(mixedConfig(o.seed), false), nil
	case "fleet_flash_crowd_cdn":
		return newFleetBench(flashConfig(o.seed), true), nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func run(o options) (*result, error) {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400) // the deployment setting of vodfleet and vodbench
	}
	if p := runtime.GOMAXPROCS(0); p > workers || sched.Global.Capacity() != p {
		return nil, fmt.Errorf("GOMAXPROCS %d, scheduler capacity %d: run with GOMAXPROCS<=%d (run.sh sets it)",
			p, sched.Global.Capacity(), workers)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}

	var setups []time.Duration
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}

	var c checks
	// One warm-up repetition, checked but not timed: it faults in the
	// heap and code the timed repetitions would otherwise pay for once.
	if _, err := measure(func() (int64, func(), error) { return b.run(&c) }); err != nil {
		return nil, err
	}

	res := &result{}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	if !o.trace {
		var reps []sample
		for len(reps) < minReps || time.Since(start) < budget {
			s, err := measure(func() (int64, func(), error) { return b.run(&c) })
			if err != nil {
				return nil, err
			}
			reps = append(reps, s)
		}
		res.Metrics = endToEnd(reps, setups)
	} else {
		// Untraced and traced repetitions alternate, so both see the same
		// machine state; their median walls give the tracing overhead.
		var (
			plain, traced []float64
			layers        []map[string]float64
			last          *tracer
		)
		for len(layers) < 1 || time.Since(start) < budget {
			s, err := measure(func() (int64, func(), error) { return b.run(&c) })
			if err != nil {
				return nil, err
			}
			plain = append(plain, s.wall.Seconds())
			runtime.GC() // as measure does before an untraced repetition
			tr := newTracer()
			m, wall, err := b.traced(&c, tr)
			if err != nil {
				return nil, err
			}
			traced = append(traced, wall.Seconds())
			layers = append(layers, m)
			last = tr
		}
		res.Metrics = perLayer(layers)
		res.Metrics["trace.overhead_frac"] = metric{median(traced)/median(plain) - 1, "fraction"}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := writeChromeTrace(path, last.spans, b.groupKey()); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d spans)\n", path, len(last.spans))
	}
	res.Attempted, res.Failed = c.total, c.failed
	res.Correct = c.failed == 0 && c.total > 0
	return res, nil
}
