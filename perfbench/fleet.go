package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"

	"repro/internal/cdn"
	"repro/internal/expcache"
	"repro/internal/fleet"
	"repro/internal/manifest"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/services"
)

// fleetSessions is the population of both fleet workloads.
const fleetSessions = 100_000

// mixedConfig is fleet_mixed: 100k sessions, 5% at full fidelity,
// balanced 24-client cells, no cache tier.
func mixedConfig(seed int64) fleet.Config {
	return fleet.Config{Seed: seed, Sessions: fleetSessions, FidelityFull: 0.05}
}

// flashConfig is fleet_flash_crowd_cdn: mixedConfig with half the
// population on cell 0, an edge/metro cache tier, cells 0-3 cold and
// edge node 0 of cell 0 failing at t=60 s.
func flashConfig(seed int64) fleet.Config {
	cfg := mixedConfig(seed)
	cfg.Hotspot = 0.5
	cc, err := cdn.ParseCacheSpec("edge:64MiB,metro:2GiB,ttl=6h")
	if err != nil {
		panic(err) // constant spec
	}
	cc.ColdCells = "0-3"
	if err := cdn.ParseFailSpec("cell=0,t=60s", &cc); err != nil {
		panic(err) // constant spec
	}
	cfg.Cache = &cc
	return cfg
}

// fleetBench runs fleet.Run on one config, audits every report, and
// mirrors the run from public calls for the traced repetitions.
type fleetBench struct {
	cfg   fleet.Config
	flash bool // the scenario must re-route sessions and miss on cold cells

	m     *mirror       // set-up products, shared with the mirror
	first []byte        // JSON of the first report
	last  *fleet.Report // most recent untraced report
}

func newFleetBench(cfg fleet.Config, flash bool) *fleetBench {
	return &fleetBench{cfg: cfg, flash: flash}
}

func (b *fleetBench) groupKey() string { return "cell" }

// setup normalises the config and builds, from an empty session cache,
// the 12 service origins, the cellular traces and — with the cache tier
// on — the content catalog and the cold-cell set.
func (b *fleetBench) setup() error {
	expcache.Default.Reset()
	cfg, err := b.cfg.Normalized()
	if err != nil {
		return err
	}
	m := &mirror{cfg: cfg, traces: netem.CellularSet()}
	for _, name := range cfg.Services {
		svc := services.ByName(name)
		org, err := expcache.Origin(svc)
		if err != nil {
			return fmt.Errorf("origin for %s: %w", name, err)
		}
		m.svcs = append(m.svcs, svc)
		m.origins = append(m.origins, org)
		m.bg = append(m.bg, backgroundTemplate(org))
	}
	if cfg.Cache != nil {
		m.cache = cfg.Cache
		m.catalog = catalogOf(m.origins)
		if m.cold, err = cfg.Cache.ColdSet(); err != nil {
			return err
		}
	}
	b.m = m
	return nil
}

func (b *fleetBench) run(c *checks) (int64, func(), error) {
	rep, err := fleet.Run(context.Background(), b.cfg, workers)
	if err != nil {
		return 0, nil, err
	}
	js, jerr := rep.JSON()
	b.last = rep
	return rep.Sessions, func() {
		c.expect(jerr == nil, "report JSON: %v", jerr)
		if b.first == nil {
			b.first = js
		}
		c.expect(bytes.Equal(js, b.first), "report bytes differ from the first repetition's")
		auditReport(c, rep, b.cfg.Sessions, b.flash)
	}, nil
}

// auditReport checks a fleet report's invariants. flash adds the checks
// that the flash-crowd scenario actually acted.
func auditReport(c *checks, r *fleet.Report, population int, flash bool) {
	c.expect(r.Sessions == int64(population), "sessions %d, population %d", r.Sessions, population)
	c.expect(r.FullSessions+r.BackgroundSessions == r.Sessions,
		"full %d + background %d != sessions %d", r.FullSessions, r.BackgroundSessions, r.Sessions)
	var sessions, started int64
	for _, s := range r.Services {
		sessions += s.Sessions
		started += s.Started
	}
	c.expect(sessions == r.Sessions, "per-service sessions sum to %d, report says %d", sessions, r.Sessions)
	c.expect(started == r.Started && started <= sessions, "per-service started sum to %d, report says %d", started, r.Started)
	bad := badFields(reflect.ValueOf(*r), "report")
	c.expect(len(bad) == 0, "NaN, Inf or negative count: %v", bad)

	u := r.EdgeUtilization
	over := u.Over
	for i, n := range u.Counts {
		if u.Lo+float64(i)*(u.Hi-u.Lo)/float64(len(u.Counts)) >= 1 {
			over += n
		}
	}
	c.expect(over == 0, "%d cells with edge utilisation >= 1", over)

	if r.CDN != nil {
		// The cdn counters book a media request's full size when it is
		// resolved, while total_bytes is what the network delivered, so
		// a transfer cut short counts in full in the former only. The
		// byte counters are therefore checked against each other here,
		// and against the sizes the requests asked for in the traced run.
		cd := r.CDN
		c.expect(cd.OriginBytes <= cd.BackhaulBytes,
			"cdn origin bytes %g exceed backhaul bytes %g", cd.OriginBytes, cd.BackhaulBytes)
		c.expect(cd.MetroHits+cd.MetroMisses <= cd.EdgeMisses,
			"cdn metro lookups %d exceed edge misses %d", cd.MetroHits+cd.MetroMisses, cd.EdgeMisses)
		offload := cd.HitBytes + cd.BackhaulBytes - cd.OriginBytes
		c.expect(cd.OriginOffloadBytes == offload, //vodlint:allow floateq — the report computes the same expression
			"cdn origin offload %g bytes, hit + backhaul - origin is %g", cd.OriginOffloadBytes, offload)
		lookups := cd.EdgeHits + cd.EdgeMisses
		c.expect(lookups > 0 && cd.HitRatio == float64(cd.EdgeHits)/float64(lookups), //vodlint:allow floateq — same division
			"cdn hit ratio %g, edge hits %d of %d lookups", cd.HitRatio, cd.EdgeHits, lookups)
	}
	if flash {
		c.expect(r.CDN != nil && r.CDN.Rerouted > 0, "flash crowd re-routed no session")
		c.expect(r.CDN != nil && r.CDN.EdgeMisses > 0, "flash crowd had no edge miss")
	}
}

// badFields lists the paths of non-finite floats and negative integers
// in v, skipping the echoed input config.
func badFields(v reflect.Value, path string) []string {
	var bad []string
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			bad = append(bad, path)
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		if v.Int() < 0 {
			bad = append(bad, path)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			bad = append(bad, badFields(v.Elem(), path)...)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			bad = append(bad, badFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type == reflect.TypeOf(fleet.Config{}) {
				continue
			}
			bad = append(bad, badFields(v.Field(i), path+"."+f.Name)...)
		}
	}
	return bad
}

// backgroundTemplate is the coarse tier's view of a service, built from
// its origin exactly as the fleet builds it.
func backgroundTemplate(org *origin.Origin) player.BackgroundConfig {
	pres := org.Pres
	declared := make([]float64, len(pres.Video))
	for i, r := range pres.Video {
		declared[i] = r.DeclaredBitrate
	}
	return player.BackgroundConfig{
		Declared:        declared,
		SegmentDuration: pres.Video[0].SegmentDuration,
		MediaDuration:   pres.Duration,
		SafetyFactor:    1.6, // the fleet's calibration of the coarse tier
	}
}

// catalogOf is the cache tier's content library: per-service segment
// sizes from the origin presentations, as the fleet builds it.
func catalogOf(origins []*origin.Origin) *cdn.Catalog {
	titles := make([]cdn.Title, len(origins))
	for i, org := range origins {
		for _, r := range org.Pres.Video {
			titles[i].Video = append(titles[i].Video, segmentSizes(r.Segments))
		}
		for _, r := range org.Pres.Audio {
			titles[i].Audio = append(titles[i].Audio, segmentSizes(r.Segments))
		}
	}
	return cdn.NewCatalog(titles)
}

func segmentSizes(segs []manifest.Segment) []float64 {
	sizes := make([]float64, len(segs))
	for i, s := range segs {
		sizes[i] = float64(s.Size)
	}
	return sizes
}
