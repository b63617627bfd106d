package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

// smallFlash is the flash-crowd workload at 600 sessions: the cache tier
// on, cells 0-3 cold and edge node 0 of cell 0 failing at t=60 s.
func smallFlash() fleet.Config {
	cfg := flashConfig(1)
	cfg.Sessions = 600
	return cfg
}

func hasFailure(c *checks, substr string) bool {
	for _, f := range c.failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

func TestAuditRejectsDoctoredReport(t *testing.T) {
	cfg := smallFlash()
	rep, err := fleet.Run(context.Background(), cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	var base checks
	auditReport(&base, rep, cfg.Sessions, true)
	if base.failed != 0 {
		t.Fatalf("genuine report fails: %v", base.failures)
	}

	cases := []struct {
		name   string
		doctor func(r *fleet.Report)
		want   string
	}{
		{"nan", func(r *fleet.Report) { r.Services[3].BitrateMbps.Mean = math.NaN() }, "NaN, Inf"},
		{"inf", func(r *fleet.Report) { r.TotalBytes = math.Inf(1) }, "NaN, Inf"},
		{"negative count", func(r *fleet.Report) { r.FairnessJain.Counts[0] = -1 }, "NaN, Inf or negative count"},
		{"tier counts", func(r *fleet.Report) { r.FullSessions++ }, "full"},
		{"service counts", func(r *fleet.Report) { r.Services[0].Sessions++ }, "per-service sessions"},
		{"population", func(r *fleet.Report) { r.Sessions-- }, "population"},
		{"zero re-routes", func(r *fleet.Report) { r.CDN.Rerouted = 0 }, "re-routed no session"},
		{"utilisation", func(r *fleet.Report) { r.EdgeUtilization.Over = 1 }, "edge utilisation"},
		{"origin bytes", func(r *fleet.Report) { r.CDN.OriginBytes = r.CDN.BackhaulBytes * 1.01 }, "origin bytes"},
		{"metro lookups", func(r *fleet.Report) { r.CDN.MetroMisses = r.CDN.EdgeMisses }, "metro lookups"},
		{"offload", func(r *fleet.Report) { r.CDN.HitBytes++ }, "origin offload"},
		{"hit ratio", func(r *fleet.Report) { r.CDN.EdgeHits++ }, "hit ratio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := *rep
			doc.Services = append([]fleet.ServiceStats(nil), rep.Services...)
			doc.FairnessJain.Counts = append([]int64(nil), rep.FairnessJain.Counts...)
			cdnCopy := *rep.CDN
			doc.CDN = &cdnCopy
			tc.doctor(&doc)
			var c checks
			auditReport(&c, &doc, cfg.Sessions, true)
			if !hasFailure(&c, tc.want) {
				t.Errorf("audit accepted a doctored report; failures: %v", c.failures)
			}
		})
	}
}

func TestNormalizeStripsOnlyTimingLines(t *testing.T) {
	in := "# R\n\n## fig4 — x\n\n_regenerated in 0.1s_\n\n| a |\n" +
		"_regenerated in 12.5s_\n" +
		"_regenerated in 0.1s_ trailing\n" +
		"see _regenerated in 0.1s_\n" +
		"_regenerated in 1s_\n" +
		"_regenerated in 0.1s_"
	want := "# R\n\n## fig4 — x\n\n\n| a |\n" +
		"_regenerated in 0.1s_ trailing\n" +
		"see _regenerated in 0.1s_\n" +
		"_regenerated in 1s_\n"
	if got := string(normalizeReport([]byte(in))); got != want {
		t.Errorf("normalizeReport:\n got %q\nwant %q", got, want)
	}

	// On the committed report it removes exactly one line per experiment.
	ref, err := os.ReadFile(filepath.Join("..", "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	removed := strings.Count(string(ref), "\n") - strings.Count(string(normalizeReport(ref)), "\n")
	if n := len(experiments.All()); removed != n {
		t.Errorf("removed %d lines from REPORT.md, want one per experiment (%d)", removed, n)
	}
}

func TestMirrorMatchesFleetRun(t *testing.T) {
	b := newFleetBench(smallFlash(), true)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	var c checks
	if _, verify, err := b.run(&c); err != nil {
		t.Fatal(err)
	} else {
		verify()
	}
	tr := newTracer()
	m, _, err := b.traced(&c, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range c.failures {
		t.Errorf("%s", f)
	}
	if m["cdn.resolve_calls"] <= 0 || m["player.full_sessions"]+m["player.cohort_members"] != 600 {
		t.Errorf("mirror counted %v resolves, %v+%v sessions", m["cdn.resolve_calls"],
			m["player.full_sessions"], m["player.cohort_members"])
	}
}

func TestChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.reserve()
	ms := time.Millisecond
	tr.add(span{Name: "fleet.draw", Parent: root, Group: 7, Start: 1 * ms, End: 2 * ms})
	tr.add(span{Name: "player.group_run", Parent: root, Group: 7, Start: 2 * ms, End: 9 * ms,
		Child: []aggChild{{Name: "cdn.resolve", Calls: 10, Dur: 3 * ms}}})
	tr.put(span{ID: root, Name: "fleet.cell", Group: 7, Start: 0, End: 10 * ms})

	self := selfTimes(tr.spans)
	for name, want := range map[string]time.Duration{
		"fleet.cell": 2 * ms, "fleet.draw": ms, "player.group_run": 4 * ms, "cdn.resolve": 3 * ms,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.spans, "cell"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Args["cell"] != 7.0 || e.Args["span"] == nil {
			t.Errorf("event %+v lacks phase, cell or span id", e)
		}
		if e.Name != "fleet.cell" && e.Args["parent"] != float64(root) {
			t.Errorf("event %s has parent %v, want %d", e.Name, e.Args["parent"], root)
		}
	}
}
