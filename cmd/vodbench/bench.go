// Benchmark-regression harness: `vodbench -bench` times every paper
// artifact plus a set of substrate micro-benchmarks through
// testing.Benchmark, emits the numbers as machine-readable JSON
// (BENCH_*.json), and `-compare` gates a run against a committed
// baseline so speedups stay locked in and regressions fail CI.
//
// Cross-machine comparability: raw ns/op is meaningless between a
// laptop and a CI runner, so every run also times a fixed pure-CPU
// calibration workload (an FNV-1a hash loop that no repository change
// can speed up or slow down). The gate compares ns/op *normalized by
// the same run's calibration time*; allocs/op needs no normalization
// and is gated directly.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/live"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/services"
	"repro/internal/simnet"
)

// calibrationName is the benchmark every ns/op figure is normalized by.
const calibrationName = "calibration/fnv1a"

// BenchResult is one benchmark's measurement in the JSON file.
type BenchResult struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"` // "calibration", "substrate" or "artifact"
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchFile is the schema of a BENCH_*.json file.
type BenchFile struct {
	Schema     int           `json:"schema"`
	GoVersion  string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

type benchSpec struct {
	name string
	kind string
	run  func(b *testing.B)
}

// benchSpecs assembles the suite: the calibration workload, the
// substrate micro-benchmarks, and one benchmark per registered
// experiment (each iteration regenerates the artifact in full).
func benchSpecs() ([]benchSpec, error) {
	specs := []benchSpec{{calibrationName, "calibration", benchCalibration}}

	sub, err := substrateSpecs()
	if err != nil {
		return nil, err
	}
	specs = append(specs, sub...)

	for _, e := range experiments.All() {
		run := e.Run
		specs = append(specs, benchSpec{
			name: "artifact/" + e.ID,
			kind: "artifact",
			run: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := run(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	return specs, nil
}

// benchCalibration hashes 1 MiB of fixed bytes per op with FNV-1a. It
// touches no repository code, so its ns/op tracks only machine speed.
func benchCalibration(b *testing.B) {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		h := uint64(14695981039346656037)
		for _, c := range buf {
			h = (h ^ uint64(c)) * 1099511628211
		}
		sink += h
	}
	if sink == 42 {
		b.Log("unreachable") // defeat dead-code elimination
	}
}

func substrateSpecs() ([]benchSpec, error) {
	// session10min: one full 10-minute virtual session, the unit of
	// work every experiment multiplies (mirrors BenchmarkSession10Min).
	svc := services.ByName("H1")
	org, err := svc.Origin()
	if err != nil {
		return nil, err
	}
	sessionProfile := netem.Cellular(5)

	// live_session: 4 minutes of live HLS (playlist polling + edge
	// tracking) on the same simulator.
	lv, err := media.Generate(media.Config{
		Name: "live", Duration: 1200, SegmentDuration: 4,
		TargetBitrates: []float64{250e3, 500e3, 1e6},
		Seed:           17,
	})
	if err != nil {
		return nil, err
	}
	lorg := live.NewOrigin(lv)
	liveProfile := netem.Constant("c", 8e6, 2000)

	transferProfile := netem.Constant("c", 10e6, 1e6)

	// simnet_fanin512: 512 concurrent flows through one shared profile —
	// the flash-crowd fan-in regime — on the virtual-time engine, which
	// is what the default engine hands off to at this population.
	fanIn512 := func(b *testing.B) {
		cfg := simnet.DefaultConfig()
		cfg.Engine = simnet.EngineVTime
		n := simnet.New(cfg, netem.Constant("edge", 200e6, 1000))
		conns := make([]*simnet.Conn, 512)
		for i := range conns {
			conns[i] = n.Dial()
		}
		rng := rand.New(rand.NewSource(1))
		sizes := make([]float64, len(conns))
		for i := range sizes {
			sizes[i] = math.Round(rng.Float64()*2e6) + 1e5
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, c := range conns {
				c.Start(sizes[j], nil)
			}
			for delivered := 0; delivered < len(conns); {
				done := n.Step(1e12)
				delivered += len(done)
				for _, tr := range done {
					n.Recycle(tr)
				}
			}
		}
	}

	// report_cold / report_cached: one full report regeneration per
	// iteration through the session cache — cold resets the in-memory
	// tier first (every session computed), cached pre-warms it once
	// (every session served from memory). The pair tracks cache
	// effectiveness in BENCH_*.json: cached/cold is the fraction of
	// report time that is session computation rather than analysis and
	// rendering.
	reportAll := func(b *testing.B) {
		if _, err := experiments.RunAll(context.Background(), experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}

	return []benchSpec{
		{"substrate/report_cold", "substrate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				expcache.Default.Reset()
				reportAll(b)
			}
		}},
		{"substrate/report_cached", "substrate", func(b *testing.B) {
			expcache.Default.Reset()
			reportAll(b) // warm the cache outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reportAll(b)
			}
		}},
		{"substrate/session10min", "substrate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := services.RunWithOrigin(svc.Player, org, sessionProfile, 600, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"substrate/simnet_transfers", "substrate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := simnet.New(simnet.DefaultConfig(), transferProfile)
				c := n.Dial()
				for j := 0; j < 1000; j++ {
					c.Start(500e3, nil)
					n.Step(1e6)
				}
			}
		}},
		{"substrate/simnet_fanin512", "substrate", fanIn512},
		{"substrate/live_session", "substrate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := simnet.New(simnet.DefaultConfig(), liveProfile)
				if _, err := live.Play(live.Config{JoinAt: 60, SessionDuration: 240}, lorg, net); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// fleet_1k: a 1000-session population run (workload draw, shared
		// edge cells, streaming aggregation), serial so the gate tracks
		// per-session cost rather than runner core count (mirrors
		// BenchmarkFleet1k).
		{"substrate/fleet_1k", "substrate", func(b *testing.B) {
			cfg := fleet.Config{Seed: 1, Sessions: 1000}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(context.Background(), cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// fleet_hotspot: a 100k-session flash crowd with 80% of arrivals
		// concentrated on cell 0 (2% full fidelity), serial. This is the
		// high-fan-in fleet gate: cell 0 carries tens of thousands of
		// concurrent flows, so it regresses hard if the vtime engine or
		// the auto-switch hysteresis stops doing its job.
		{"substrate/fleet_hotspot", "substrate", func(b *testing.B) {
			cfg := fleet.Config{Seed: 1, Sessions: 100_000, Hotspot: 0.8, FidelityFull: 0.02}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(context.Background(), cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// fleet_1m: the million-session tier — a mixed-fidelity population
		// (5% full player, 95% background flows) through the work-stealing
		// shard layer and columnar aggregation, serial for per-session
		// cost tracking. This is the scale gate: a regression here means
		// the lean/columnar/background machinery stopped paying for
		// itself.
		{"substrate/fleet_1m", "substrate", func(b *testing.B) {
			cfg := fleet.Config{Seed: 1, Sessions: 1_000_000, FidelityFull: 0.05}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(context.Background(), cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// fleet_cohort_1m: the pure background-tier million — every member
		// runs inside the vectorized cohort (FidelityFull < 0), serial.
		// This isolates the cohort engine's per-session cost with no full
		// player sessions in the mix: the number to watch when touching
		// cohort.go or the cell engine.
		{"substrate/fleet_cohort_1m", "substrate", func(b *testing.B) {
			cfg := fleet.Config{Seed: 1, Sessions: 1_000_000, FidelityFull: -1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(context.Background(), cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// fleet_cdn_100k: the 100k-session fleet with the full edge-cache
		// tier on (finite edge + metro + backhaul contention + a cold
		// region + a mid-run edge failure on the hotspot cell, so sessions
		// actually re-route), serial. The allocs/op gate is the
		// zero-alloc steady-state contract for the cdn hot path: cache
		// lookup/admit/evict and balancer routing recycle entries through
		// the free list, so per-request allocation shows up here as an
		// exact allocs/op regression against the baseline.
		{"substrate/fleet_cdn_100k", "substrate", func(b *testing.B) {
			cfg := fleet.Config{Seed: 1, Sessions: 100_000, FidelityFull: 0.05, Hotspot: 0.5,
				Cache: &cdn.CacheConfig{
					EdgeBytes:  64 << 20,
					MetroBytes: 2 << 30,
					TTLSec:     6 * 3600,
					ColdCells:  "0-3",
					FailCell:   0,
					FailAtSec:  60,
				}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(context.Background(), cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// fleet_warm_sweep: a fully cached fleet re-run — the cache is
		// prewarmed outside the timer, so each iteration measures the
		// incremental-sweep floor (cell fingerprinting, cache lookups,
		// aggregate merges, report rendering) with zero simulation.
		{"substrate/fleet_warm_sweep", "substrate", func(b *testing.B) {
			cfg := fleet.Config{Seed: 1, Sessions: 100_000, FidelityFull: 0.05}
			cache := fleet.NewCellCache()
			opts := fleet.RunOptions{Workers: 1, CellCache: cache}
			if _, err := fleet.RunWithOptions(context.Background(), cfg, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.RunWithOptions(context.Background(), cfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// runBench executes the (filtered) suite and returns the results.
func runBench(filter string) (*BenchFile, error) {
	var re *regexp.Regexp
	if filter != "" {
		var err error
		if re, err = regexp.Compile(filter); err != nil {
			return nil, fmt.Errorf("bad -filter: %v", err)
		}
	}
	specs, err := benchSpecs()
	if err != nil {
		return nil, err
	}
	out := &BenchFile{
		Schema:    1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range specs {
		// The calibration benchmark always runs: -compare needs it to
		// normalize even when the filter selects a subset.
		if re != nil && s.kind != "calibration" && !re.MatchString(s.name) {
			continue
		}
		r := testing.Benchmark(s.run)
		br := BenchResult{
			Name:        s.name,
			Kind:        s.kind,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		out.Benchmarks = append(out.Benchmarks, br)
		fmt.Fprintf(os.Stderr, "vodbench: %-28s %12.0f ns/op %10d allocs/op %12d B/op (%d iters)\n",
			br.Name, br.NsPerOp, br.AllocsPerOp, br.BytesPerOp, br.Iterations)
	}
	return out, nil
}

func writeBenchFile(f *BenchFile, path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func (f *BenchFile) byName() map[string]BenchResult {
	m := make(map[string]BenchResult, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		m[b.Name] = b
	}
	return m
}

// compareBench gates cur against base. nsTol and allocTol are
// fractional tolerances (0.20 = fail beyond +20%). It returns the
// number of regressions and prints a comparison table.
func compareBench(base, cur *BenchFile, nsTol, allocTol float64) int {
	baseBy, curBy := base.byName(), cur.byName()

	// Normalize ns/op by each run's own calibration time so baselines
	// recorded on one machine gate runs on another.
	norm := func(m map[string]BenchResult, ns float64) float64 {
		if c, ok := m[calibrationName]; ok && c.NsPerOp > 0 {
			return ns / c.NsPerOp
		}
		return ns
	}

	var names []string
	for name := range curBy {
		if _, ok := baseBy[name]; ok && name != calibrationName {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	regressions := 0
	fmt.Printf("%-28s %14s %14s %8s %10s %10s %8s\n",
		"benchmark", "base ns/op", "cur ns/op", "Δtime", "base allocs", "cur allocs", "Δallocs")
	for _, name := range names {
		b, c := baseBy[name], curBy[name]
		nb, nc := norm(baseBy, b.NsPerOp), norm(curBy, c.NsPerOp)
		dt := nc/nb - 1
		var da float64
		if b.AllocsPerOp > 0 {
			da = float64(c.AllocsPerOp)/float64(b.AllocsPerOp) - 1
		} else if c.AllocsPerOp > 0 {
			da = 1
		}
		mark := ""
		if dt > nsTol {
			mark, regressions = "  TIME-REGRESSION", regressions+1
		}
		if da > allocTol {
			mark, regressions = mark+"  ALLOC-REGRESSION", regressions+1
		}
		fmt.Printf("%-28s %14.0f %14.0f %+7.1f%% %10d %10d %+7.1f%%%s\n",
			name, b.NsPerOp, c.NsPerOp, 100*dt, b.AllocsPerOp, c.AllocsPerOp, 100*da, mark)
	}
	if regressions > 0 {
		fmt.Printf("vodbench: %d benchmark regression(s) beyond tolerance (ns %.0f%%, allocs %.0f%%)\n",
			regressions, 100*nsTol, 100*allocTol)
	} else {
		fmt.Printf("vodbench: no regressions (%d benchmarks compared, ns tolerance %.0f%%, allocs tolerance %.0f%%)\n",
			len(names), 100*nsTol, 100*allocTol)
	}
	return regressions
}
