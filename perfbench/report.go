package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/expcache"
	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/services"
)

// reportBench is paper_report: a cold regeneration of every experiment
// through experiments.RunAll on two workers, with the session cache
// emptied before each regeneration, rendered exactly as vodreport
// renders REPORT.md and compared with the committed REPORT.md.
type reportBench struct {
	want     []byte // normalised committed report
	sessions int64  // session requests of the first regeneration
}

// reportPath is the committed report, relative to the checkout root.
const reportPath = "REPORT.md"

func (b *reportBench) groupKey() string { return "experiment" }

// setup loads the reference report and builds what every experiment
// starts from: the 12 service origins from an empty cache and the 14
// cellular traces.
func (b *reportBench) setup() error {
	ref, err := os.ReadFile(reportPath)
	if err != nil {
		return fmt.Errorf("reference report: %w", err)
	}
	b.want = normalizeReport(ref)
	expcache.Default.Reset()
	for _, svc := range services.All() {
		if _, err := expcache.Origin(svc); err != nil {
			return err
		}
	}
	netem.CellularSet()
	return nil
}

// regenerate runs every experiment from an empty session cache.
func regenerate(opts experiments.Options) ([]experiments.Result, expcache.Stats, error) {
	expcache.Default.Reset()
	opts.Workers = workers
	results, err := experiments.RunAll(context.Background(), opts)
	return results, expcache.Default.Snapshot(), err
}

// requests is how many sessions the experiments asked the cache for,
// computed or not.
func requests(s expcache.Stats) int64 {
	return s.MemHits + s.DiskHits + s.Misses + s.Dedup + s.Bypass
}

func (b *reportBench) run(c *checks) (int64, func(), error) {
	results, st, err := regenerate(experiments.Options{})
	if err != nil {
		return 0, nil, err
	}
	md := renderReport(results)
	n := requests(st)
	return n, func() { b.verify(c, md, n) }, nil
}

// verify checks one regeneration: the report matches the committed one
// once timing lines are removed, and the experiments asked for the same
// sessions as in every other regeneration.
func (b *reportBench) verify(c *checks, md []byte, n int64) {
	got := normalizeReport(md)
	c.expect(bytes.Equal(got, b.want), "paper_report: report differs from %s (%d vs %d bytes after normalising)",
		reportPath, len(got), len(b.want))
	if b.sessions == 0 {
		b.sessions = n
	}
	c.expect(n > 0 && n == b.sessions, "paper_report: %d session requests, first regeneration made %d", n, b.sessions)
}

// traced regenerates once more, recording one span per experiment from
// OnProgress: an experiment started Elapsed before it reported. Spans
// are laid out on lanes (one per concurrently running experiment) once
// the run is over, in start order.
func (b *reportBench) traced(c *checks, tr *tracer) (map[string]float64, time.Duration, error) {
	rootID := tr.reserve()
	start := tr.now()
	var exps []span
	opts := experiments.Options{OnProgress: func(r experiments.Result) {
		end := tr.now()
		exps = append(exps, span{Name: "experiments." + r.ID, Parent: rootID, Group: r.Index, Start: end - r.Elapsed, End: end})
	}}
	results, st, err := regenerate(opts)
	if err != nil {
		return nil, 0, err
	}
	md := renderReport(results)
	end := tr.now()

	sort.Slice(exps, func(i, j int) bool { return exps[i].Start < exps[j].Start })
	var lanes []time.Duration // when each lane is next free
	for _, e := range exps {
		e.Worker = len(lanes)
		for i, free := range lanes {
			if free <= e.Start {
				e.Worker = i
				break
			}
		}
		if e.Worker == len(lanes) {
			lanes = append(lanes, 0)
		}
		lanes[e.Worker] = e.End
		tr.add(e)
	}
	tr.put(span{ID: rootID, Name: "experiments.run_all", Group: -1, Start: start, End: end,
		Args: map[string]float64{"lanes": workers}})
	b.verify(c, md, requests(st))

	var sum, crit time.Duration
	for _, r := range results {
		sum += r.Elapsed
		if r.Elapsed > crit {
			crit = r.Elapsed
		}
	}
	hits := st.MemHits + st.DiskHits + st.Dedup
	return map[string]float64{
		"experiments.sum_s":          sum.Seconds(),
		"experiments.critical_s":     crit.Seconds(),
		"experiments.parallel_eff":   sum.Seconds() / (workers * (end - start).Seconds()),
		"expcache.sessions_computed": float64(st.Misses),
		"expcache.hit_ratio":         float64(hits) / float64(requests(st)),
		"expcache.origin_builds":     float64(st.OriginBuilds),
	}, end - start, nil
}

// renderReport assembles the report exactly as cmd/vodreport does
// without -stable, timing lines included.
func renderReport(results []experiments.Result) []byte {
	var b strings.Builder
	b.WriteString("# Regenerated experiment report\n\n")
	b.WriteString("Produced by `vodreport`; every table below is regenerated from the\n")
	b.WriteString("committed code with fixed seeds. See EXPERIMENTS.md for the\n")
	b.WriteString("paper-vs-measured comparison and DESIGN.md for the substitutions.\n")
	for _, r := range results {
		fmt.Fprintf(&b, "\n## %s — %s\n\n", r.ID, r.Title)
		fmt.Fprintf(&b, "_regenerated in %.1fs_\n\n", r.Elapsed.Seconds())
		for _, t := range r.Tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
		for _, p := range r.Plots {
			b.WriteString("```\n")
			b.WriteString(p)
			b.WriteString("```\n\n")
		}
	}
	return []byte(b.String())
}

// timingLine is the only run-dependent line of a report.
var timingLine = regexp.MustCompile(`^_regenerated in [0-9]+\.[0-9]s_$`)

// normalizeReport removes the timing lines and nothing else.
func normalizeReport(md []byte) []byte {
	lines := bytes.SplitAfter(md, []byte("\n"))
	out := make([]byte, 0, len(md))
	for _, l := range lines {
		if timingLine.Match(bytes.TrimSuffix(l, []byte("\n"))) {
			continue
		}
		out = append(out, l...)
	}
	return out
}
