package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cdn"
	"repro/internal/fleet"
	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/sched"
	"repro/internal/services"
	"repro/internal/simnet"
)

// The mirror re-runs a fleet from the outside in, from public calls
// only, with a span around each layer call: it draws each cell with
// fleet.CellClients, builds the cell's network, access links, sessions,
// cohort and cache tier, runs its player.Group, and drives the cells in
// the fleet's 16-cell shards through sched.Global.RunStealing. Each
// session's cdn.Resolver is wrapped in a timing and counting shim, and
// both group observers are timed. Its totals must equal fleet.Run's
// report; the traced repetition checks that they do.

// cellsPerShard is the fleet's fixed shard size.
const cellsPerShard = 16

// mirror holds the set-up products of a fleet workload.
type mirror struct {
	cfg     fleet.Config // normalised
	svcs    []*services.Service
	origins []*origin.Origin
	bg      []player.BackgroundConfig
	traces  []*netem.Profile
	cache   *cdn.CacheConfig // nil without the cache tier
	catalog *cdn.Catalog
	cold    map[int]bool
}

// cellCount is the fleet's cell count for a normalised config.
func cellCount(cfg fleet.Config) int {
	if cfg.Hotspot > 0 {
		hot := int(math.Round(cfg.Hotspot * float64(cfg.Sessions)))
		if hot > cfg.Sessions {
			hot = cfg.Sessions
		}
		return 1 + (cfg.Sessions-hot+cfg.ClientsPerCell-1)/cfg.ClientsPerCell
	}
	return (cfg.Sessions + cfg.ClientsPerCell - 1) / cfg.ClientsPerCell
}

// totals are the mirror's counterparts of the report's counters, folded
// in the fleet's order: cells in index order within a shard, shards in
// index order.
type totals struct {
	full, background  int64
	sessions, started []int64 // per service
	totalBytes        float64
	cdnOn             bool
	cdn               cdn.Stats
	resolvedBytes     float64 // sizes passed to cdn.Resolver.Resolve
	coldEdgeMisses    int64
}

func newTotals(nsvc int) *totals {
	return &totals{sessions: make([]int64, nsvc), started: make([]int64, nsvc)}
}

func (t *totals) add(o *totals) {
	t.full += o.full
	t.background += o.background
	for i := range t.sessions {
		t.sessions[i] += o.sessions[i]
		t.started[i] += o.started[i]
	}
	t.totalBytes += o.totalBytes
	if o.cdnOn {
		t.cdnOn = true
		t.cdn.Add(o.cdn)
	}
	t.resolvedBytes += o.resolvedBytes
	t.coldEdgeMisses += o.coldEdgeMisses
}

// work counts what the traced layers did; the cell engine is
// single-threaded, so one cell's counts need no locking.
type work struct {
	resolveCalls  int64
	resolveBytes  float64
	resolveTime   time.Duration
	observes      int64
	observeTime   time.Duration
	vtimeObserves int64
	cellRuns      []float64 // Group.Run wall time per cell, ms
}

func (w *work) add(o *work) {
	w.resolveCalls += o.resolveCalls
	w.resolveBytes += o.resolveBytes
	w.resolveTime += o.resolveTime
	w.observes += o.observes
	w.observeTime += o.observeTime
	w.vtimeObserves += o.vtimeObserves
	w.cellRuns = append(w.cellRuns, o.cellRuns...)
}

// timedResolver is the shim around one session's cdn.Resolver.
type timedResolver struct {
	inner cdn.Resolver
	w     *work
}

func (r timedResolver) Resolve(now float64, obj cdn.Object, size float64) cdn.Route {
	t0 := time.Now()
	route := r.inner.Resolve(now, obj, size)
	r.w.resolveTime += time.Since(t0)
	r.w.resolveCalls++
	r.w.resolveBytes += size
	return route
}

// shardOut is one shard's result, kept until the in-order fold.
type shardOut struct {
	tot *totals
	w   *work
}

// mirrorRun is the result of one mirrored fleet run.
type mirrorRun struct {
	tot    *totals
	w      *work
	steals sched.StealStats
	wall   time.Duration
}

// run mirrors fleet.Run, recording spans in tr.
func (m *mirror) run(tr *tracer) (*mirrorRun, error) {
	if m.cfg.FocusSessions != 0 {
		return nil, fmt.Errorf("mirror: focus sessions are not mirrored")
	}
	nCells := cellCount(m.cfg)
	if len(fleet.CellClients(m.cfg, nCells)) != 0 || len(fleet.CellClients(m.cfg, nCells-1)) == 0 {
		return nil, fmt.Errorf("mirror: cell count %d disagrees with fleet.CellClients", nCells)
	}
	nShards := (nCells + cellsPerShard - 1) / cellsPerShard
	outs := make([]shardOut, nShards)
	lanes := newLaneMap()
	lanes.of(goid()) // the caller runs as worker 0

	rootID := tr.reserve()
	start := tr.now()
	steals, err := sched.Global.RunStealing(context.Background(), nShards, workers, sched.StealOptions{}, func(sh int) error {
		worker := lanes.of(goid())
		shardID := tr.reserve()
		s0 := tr.now()
		tot, w := newTotals(len(m.svcs)), &work{}
		var metro *cdn.Metro
		if m.cache != nil {
			metro = cdn.NewMetro(*m.cache)
			t0 := tr.now()
			m.catalog.WarmMetro(metro)
			tr.add(span{Name: "cdn.warm_metro", Parent: shardID, Group: -1, Worker: worker, Start: t0, End: tr.now()})
		}
		lo, hi := sh*cellsPerShard, (sh+1)*cellsPerShard
		if hi > nCells {
			hi = nCells
		}
		for k := lo; k < hi; k++ {
			if err := m.runCell(tr, shardID, worker, metro, k, tot, w); err != nil {
				return err
			}
		}
		outs[sh] = shardOut{tot, w}
		tr.put(span{ID: shardID, Name: "sched.shard", Parent: rootID, Group: -1, Worker: worker, Start: s0, End: tr.now(),
			Args: map[string]float64{"shard": float64(sh), "cells": float64(hi - lo)}})
		return nil
	})
	end := tr.now()
	if err != nil {
		return nil, err
	}
	tr.put(span{ID: rootID, Name: "sched.run_stealing", Group: -1, Start: start, End: end,
		Args: map[string]float64{"lanes": workers, "shards": float64(nShards),
			"steals": float64(steals.Steals), "stolen": float64(steals.Stolen)}})

	res := &mirrorRun{tot: newTotals(len(m.svcs)), w: &work{}, steals: steals, wall: end - start}
	for _, o := range outs {
		res.tot.add(o.tot)
		res.w.add(o.w)
	}
	return res, nil
}

// runCell mirrors the fleet's per-cell simulation for cell k.
func (m *mirror) runCell(tr *tracer, shardID, worker int, metro *cdn.Metro, k int, tot *totals, sw *work) error {
	cellID := tr.reserve()
	c0 := tr.now()
	members := fleet.CellClients(m.cfg, k)
	c1 := tr.now()
	tr.add(span{Name: "fleet.draw", Parent: cellID, Group: k, Worker: worker, Start: c0, End: c1})

	buildID := tr.reserve()
	horizon := 0.0
	for _, c := range members {
		if e := c.Arrival + c.Watch; e > horizon {
			horizon = e
		}
	}
	edge := netem.Constant("edge", m.cfg.EdgeMbps*1e6, horizon+1)
	scfg := simnet.DefaultConfig()
	scfg.Engine = simnet.EngineCell
	net := simnet.New(scfg, edge)
	var cell *cdn.Cell
	if m.cache != nil {
		backhaul := net.NewAccessLink(netem.Constant("backhaul", m.cache.BackhaulMbps*1e6, horizon+1))
		cell = cdn.NewCell(*m.cache, k, metro, backhaul)
		if !m.cold[k] {
			w0 := tr.now()
			m.catalog.Warm(cell)
			tr.add(span{Name: "cdn.warm", Parent: buildID, Group: k, Worker: worker, Start: w0, End: tr.now()})
		}
	}

	var w work
	ct := newTotals(len(m.svcs))
	observe := func(svc int, s *player.Summary) {
		t0 := time.Now()
		rep := qoe.FromSummary(s)
		ct.sessions[svc]++
		if rep.StartupDelay >= 0 {
			ct.started[svc]++
		}
		if net.VTimeActive() {
			w.vtimeObserves++
		}
		w.observes++
		w.observeTime += time.Since(t0)
	}
	svcOf := make(map[*player.Session]int, len(members))
	g := player.NewGroup()
	g.SetObserver(func(s *player.Session, _ *player.Result) { observe(svcOf[s], s.Summary()) })
	cohort := player.NewCohort(net)
	var coSvc []int
	for i, c := range members {
		var res cdn.Resolver
		if cell != nil {
			res = timedResolver{inner: cell.NewClient(i), w: &w}
		}
		if !c.Full {
			bcfg := m.bg[c.Service]
			bcfg.SessionDuration = c.Watch
			j := cohort.Add(bcfg)
			cohort.SetStartAt(j, c.Arrival)
			cohort.SetAccessLink(j, net.NewAccessLink(m.traces[c.Trace-1]))
			if res != nil {
				cohort.SetResolver(j, res, int32(c.Service))
			}
			coSvc = append(coSvc, c.Service)
			ct.background++
			continue
		}
		svc := m.svcs[c.Service]
		sess, err := player.NewSession(services.Resolve(svc.Player, c.Watch, nil), m.origins[c.Service], net)
		if err != nil {
			return fmt.Errorf("mirror: %s session: %w", svc.Name, err)
		}
		sess.SetLean()
		sess.SetStartAt(c.Arrival)
		sess.SetAccessLink(net.NewAccessLink(m.traces[c.Trace-1]))
		if res != nil {
			sess.SetResolver(res, int32(c.Service))
		}
		if err := g.Add(sess); err != nil {
			return err
		}
		svcOf[sess] = c.Service
		ct.full++
	}
	if cohort.Len() > 0 {
		cohort.SetObserver(func(j int, s *player.Summary) { observe(coSvc[j], s) })
		if err := g.AddCohort(cohort); err != nil {
			return err
		}
	}
	r0 := tr.now()
	tr.put(span{ID: buildID, Name: "fleet.build", Parent: cellID, Group: k, Worker: worker, Start: c1, End: r0})

	g.Run()
	r1 := tr.now()
	tr.add(span{Name: "player.group_run", Parent: cellID, Group: k, Worker: worker, Start: r0, End: r1,
		Child: []aggChild{
			{Name: "cdn.resolve", Calls: w.resolveCalls, Dur: w.resolveTime},
			{Name: "qoe.observe", Calls: w.observes, Dur: w.observeTime},
		}})
	tr.put(span{ID: cellID, Name: "fleet.cell", Parent: shardID, Group: k, Worker: worker, Start: c0, End: tr.now(),
		Args: map[string]float64{"members": float64(len(members))}})

	ct.totalBytes = net.Delivered()
	w.cellRuns = []float64{float64(r1-r0) / 1e6}
	if cell != nil {
		ct.cdnOn = true
		ct.cdn = cell.Stats
		ct.resolvedBytes = w.resolveBytes
		if m.cold[k] {
			ct.coldEdgeMisses = cell.Stats.EdgeMisses
		}
	}
	tot.add(ct)
	sw.add(&w)
	return nil
}

// laneMap numbers the goroutines that run shards: the first one seen
// is lane 0, and so on. The scheduler runs worker 0 on the caller and
// each helper on its own goroutine, so a lane is a scheduler worker.
type laneMap struct {
	mu  sync.Mutex
	ids map[uint64]int
}

func newLaneMap() *laneMap { return &laneMap{ids: map[uint64]int{}} }

func (l *laneMap) of(g uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.ids[g]
	if !ok {
		id = len(l.ids)
		l.ids[g] = id
	}
	return id
}

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:"). Called once per shard.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64) // the header format is fixed by the runtime
	return id
}
