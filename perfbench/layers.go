package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// use reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"sched.idle_frac", "fraction"},
	{"sched.shard_max_s", "s"},
	{"sched.steals", "count"},
	{"sched.stolen", "count"},
	{"fleet.draw_ns_per_session", "ns"},
	{"fleet.build_ns_per_session", "ns"},
	{"fleet.render_ms", "ms"},
	{"player.run_self_ns_per_session", "ns"},
	{"player.cell_run_p50_ms", "ms"},
	{"player.cell_run_p99_ms", "ms"},
	{"player.cell_run_max_ms", "ms"},
	{"player.full_sessions", "count"},
	{"player.cohort_members", "count"},
	{"simnet.delivered_gb", "GB"},
	{"simnet.ns_per_delivered_mb", "ns/MB"},
	{"simnet.vtime_share", "fraction"},
	{"cdn.resolve_calls", "count"},
	{"cdn.resolve_ns", "ns"},
	{"cdn.edge_hit_ratio", "fraction"},
	{"cdn.metro_hit_ratio", "fraction"},
	{"cdn.rerouted", "count"},
	{"cdn.warm_ms", "ms"},
	{"cdn.share", "fraction"},
	{"qoe.observe_ns_per_session", "ns"},
	{"experiments.sum_s", "s"},
	{"experiments.critical_s", "s"},
	{"experiments.parallel_eff", "fraction"},
	{"expcache.sessions_computed", "count"},
	{"expcache.hit_ratio", "fraction"},
	{"expcache.origin_builds", "count"},
	{"trace.overhead_frac", "fraction"},
}

// perLayer reduces the traced repetitions to one value per metric: the
// median over repetitions (counts repeat exactly, times do not).
func perLayer(reps []map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r[lm.name])
		}
		out[lm.name] = metric{median(xs), lm.unit}
	}
	return out
}

// traced runs the mirror once, renders the latest untraced report, and
// checks the mirror's totals against that report. The returned time
// covers the same work as an untraced repetition: the run and the render.
func (b *fleetBench) traced(c *checks, tr *tracer) (map[string]float64, time.Duration, error) {
	if b.last == nil {
		return nil, 0, fmt.Errorf("traced fleet repetition before any untraced one")
	}
	start := tr.now()
	mr, err := b.m.run(tr)
	if err != nil {
		return nil, 0, err
	}
	r0 := tr.now()
	_, jerr := b.last.JSON()
	r1 := tr.now()
	tr.add(span{Name: "fleet.render", Group: -1, Start: r0, End: r1})
	c.expect(jerr == nil, "report JSON: %v", jerr)
	compareMirror(c, b.last, mr.tot)
	if b.flash {
		c.expect(mr.tot.coldEdgeMisses > 0, "flash crowd: no edge miss on a cold cell")
	}
	return fleetLayers(tr.spans, mr, float64(b.last.Sessions), r1-r0), r1 - start, nil
}

// compareMirror checks that the mirror computed what fleet.Run reported:
// tier counts, per-service sessions and started sessions, and every cdn
// counter exactly, and total bytes to within 1e-9 relative. It also
// checks the cdn hit + backhaul bytes against the sizes the resolvers
// were asked for, to within 1e-9 relative.
func compareMirror(c *checks, r *fleet.Report, t *totals) {
	c.expect(t.full == r.FullSessions && t.background == r.BackgroundSessions,
		"mirror: full/background %d/%d, report %d/%d", t.full, t.background, r.FullSessions, r.BackgroundSessions)
	for i, s := range r.Services {
		c.expect(t.sessions[i] == s.Sessions && t.started[i] == s.Started,
			"mirror: %s sessions/started %d/%d, report %d/%d", s.Service, t.sessions[i], t.started[i], s.Sessions, s.Started)
	}
	rel := (t.totalBytes - r.TotalBytes) / r.TotalBytes
	c.expect(rel <= 1e-9 && rel >= -1e-9, "mirror: total bytes %g, report %g", t.totalBytes, r.TotalBytes)
	c.expect(t.cdnOn == (r.CDN != nil), "mirror: cache tier on=%v, report on=%v", t.cdnOn, r.CDN != nil)
	if r.CDN == nil || !t.cdnOn {
		return
	}
	s, d := t.cdn, r.CDN
	c.expect(s.EdgeHits == d.EdgeHits && s.EdgeMisses == d.EdgeMisses &&
		s.MetroHits == d.MetroHits && s.MetroMisses == d.MetroMisses && s.Rerouted == d.Rerouted,
		"mirror: cdn hits/misses/metro/rerouted %d/%d/%d/%d/%d, report %d/%d/%d/%d/%d",
		s.EdgeHits, s.EdgeMisses, s.MetroHits, s.MetroMisses, s.Rerouted,
		d.EdgeHits, d.EdgeMisses, d.MetroHits, d.MetroMisses, d.Rerouted)
	// The mirror folds the byte counters in the fleet's order, so they
	// must match to the last bit.
	exact := s.HitBytes == d.HitBytes && s.MissBytes == d.BackhaulBytes && s.OriginBytes == d.OriginBytes //vodlint:allow floateq — same sums in the same order
	c.expect(exact,
		"mirror: cdn hit/backhaul/origin bytes %g/%g/%g, report %g/%g/%g",
		s.HitBytes, s.MissBytes, s.OriginBytes, d.HitBytes, d.BackhaulBytes, d.OriginBytes)
	// Every resolved request is booked, in full, as an edge hit or a
	// backhaul miss.
	booked := d.HitBytes + d.BackhaulBytes
	rel = (booked - t.resolvedBytes) / t.resolvedBytes
	c.expect(t.resolvedBytes > 0 && rel <= 1e-9 && rel >= -1e-9,
		"cdn hit + backhaul bytes %g, resolved requests asked for %g", booked, t.resolvedBytes)
}

// fleetLayers derives the fleet workloads' per-layer metrics from one
// mirrored run's spans and counters.
func fleetLayers(spans []span, mr *mirrorRun, sessions float64, render time.Duration) map[string]float64 {
	self := selfTimes(spans)
	var busy, shardMax time.Duration
	for i := range spans {
		if spans[i].Name == "sched.shard" {
			d := spans[i].dur()
			busy += d
			if d > shardMax {
				shardMax = d
			}
		}
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	m := map[string]float64{
		"sched.idle_frac":                1 - busy.Seconds()/(workers*mr.wall.Seconds()),
		"sched.shard_max_s":              shardMax.Seconds(),
		"sched.steals":                   float64(mr.steals.Steals),
		"sched.stolen":                   float64(mr.steals.Stolen),
		"fleet.draw_ns_per_session":      ns(self["fleet.draw"]) / sessions,
		"fleet.build_ns_per_session":     ns(self["fleet.build"]) / sessions,
		"fleet.render_ms":                ns(render) / 1e6,
		"player.run_self_ns_per_session": ns(self["player.group_run"]) / sessions,
		"player.cell_run_p50_ms":         percentile(mr.w.cellRuns, 50),
		"player.cell_run_p99_ms":         percentile(mr.w.cellRuns, 99),
		"player.cell_run_max_ms":         percentile(mr.w.cellRuns, 100),
		"player.full_sessions":           float64(mr.tot.full),
		"player.cohort_members":          float64(mr.tot.background),
		"simnet.delivered_gb":            mr.tot.totalBytes / 1e9,
		"simnet.ns_per_delivered_mb":     ns(self["player.group_run"]) / (mr.tot.totalBytes / 1e6),
		"simnet.vtime_share":             float64(mr.w.vtimeObserves) / float64(mr.w.observes),
		"qoe.observe_ns_per_session":     ns(self["qoe.observe"]) / sessions,
	}
	if mr.tot.cdnOn {
		s := mr.tot.cdn
		m["cdn.resolve_calls"] = float64(mr.w.resolveCalls)
		m["cdn.resolve_ns"] = ns(self["cdn.resolve"]) / float64(mr.w.resolveCalls)
		m["cdn.edge_hit_ratio"] = s.HitRatio()
		if n := s.MetroHits + s.MetroMisses; n > 0 {
			m["cdn.metro_hit_ratio"] = float64(s.MetroHits) / float64(n)
		}
		m["cdn.rerouted"] = float64(s.Rerouted)
		m["cdn.warm_ms"] = ns(self["cdn.warm"]+self["cdn.warm_metro"]) / 1e6
		m["cdn.share"] = self["cdn.resolve"].Seconds() / busy.Seconds()
	}
	return m
}
