package player

// Differential tests for the vectorized background cohort (cohort.go).
//
// The contract is bit-exactness: a Cohort must be observationally
// indistinguishable from the same members run as individual Background
// flows — the per-object oracle below — not within a tolerance, but
// byte-identical Summaries. Every test here builds the same scenario
// twice (fresh networks, identical construction order) and compares
// exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/simnet"
)

// Background is the per-flow form of the background tier and the
// Cohort's oracle: a session model that skips the player state machine
// — no manifests, no per-request scheduling, no buffer index structures
// — but still moves every byte through the shared simnet as real
// transfers via the client's access link, so background flows and full
// sessions shape each other under the same max-min water-filling.
// Playback is fluid: a FIFO of media seconds drains at rate 1 while
// downloads refill it, with an EWMA throughput rule standing in for the
// configured ABR. Output is the same Summary a lean full-fidelity
// session produces, with coarser semantics (segments are declared-rate
// sized, startup/recovery share one buffer gate, no pipeline/connection
// effects).
type Background struct {
	cfg  BackgroundConfig
	net  *simnet.Network
	link *simnet.AccessLink
	conn *simnet.Conn

	startAt  float64
	lastTime float64

	playhead  float64 // media seconds played
	bufferSec float64 // downloaded, unplayed media seconds
	queue     []bgSeg

	segCount    int
	nextSeg     int
	inflight    int
	pendingDur  float64 // media duration of the in-flight segment
	pendingTrak int

	started, playing bool
	finished, done   bool
	stallOpen        bool
	stallStart       float64
	pausedDl         bool

	ewma    float64 // bits/s
	samples int

	prevTrack  int
	totalBytes float64
	sum        Summary

	ref tierRef // Transfer.Meta target, set when the flow joins a tier
}

// bgSeg is one downloaded-not-yet-played stretch of media in a
// background flow's FIFO buffer; consumption folds it into the
// play-weighted bitrate accounting.
type bgSeg struct {
	track   int
	dur     float64
	counted bool // switch accounting done at first consumption
}

// NewBackground builds a background flow over the shared network. Add
// it to a Group with addBackgrounds.
func NewBackground(cfg BackgroundConfig, net *simnet.Network) *Background {
	cfg = cfg.withDefaults()
	return &Background{
		cfg:       cfg,
		net:       net,
		segCount:  int(math.Ceil(cfg.MediaDuration / cfg.SegmentDuration)),
		prevTrack: -1,
		sum:       Summary{StartupDelay: -1, TimeOnTrack: make([]float64, len(cfg.Declared))},
	}
}

// SetStartAt schedules the flow's arrival on the shared clock; call
// before the group runs.
func (b *Background) SetStartAt(t float64) {
	if t < 0 {
		t = 0
	}
	b.startAt = t
	b.lastTime = t
}

// SetAccessLink routes the flow through a per-client access link.
func (b *Background) SetAccessLink(l *simnet.AccessLink) { b.link = l }

// Summary returns the flow's digest; complete once the group finished it.
func (b *Background) Summary() *Summary { return &b.sum }

func (b *Background) endAt() float64 { return b.startAt + b.cfg.SessionDuration }

// segDurAt returns segment i's media duration (the last one is clipped
// to the presentation end).
func (b *Background) segDurAt(i int) float64 {
	if start := float64(i) * b.cfg.SegmentDuration; start+b.cfg.SegmentDuration > b.cfg.MediaDuration {
		return b.cfg.MediaDuration - start
	}
	return b.cfg.SegmentDuration
}

// resumeSec is the buffer level at which a paused download restarts,
// mirroring the full player's pause/resume hysteresis defaults.
func (b *Background) resumeSec() float64 {
	if r := b.cfg.MaxBufferSec - 10; r > 0 {
		return r
	}
	return b.cfg.MaxBufferSec / 2
}

// issueRequests starts the next segment download if the flow is behind
// its buffer target. One request at a time: the coarse tier has no
// pipeline.
func (b *Background) issueRequests() {
	if b.inflight > 0 || b.nextSeg >= b.segCount {
		return
	}
	if b.pausedDl {
		if b.bufferSec > b.resumeSec()+1e-6 {
			return
		}
		b.pausedDl = false
	} else if b.bufferSec >= b.cfg.MaxBufferSec-1e-6 {
		b.pausedDl = true
		return
	}
	track := 0
	if b.samples > 0 {
		budget := b.cfg.SafetyFactor * b.ewma
		for t := len(b.cfg.Declared) - 1; t > 0; t-- {
			if b.cfg.Declared[t] <= budget {
				track = t
				break
			}
		}
	}
	dur := b.segDurAt(b.nextSeg)
	size := b.cfg.Declared[track] * dur / 8
	if b.conn == nil {
		b.conn = b.net.DialVia(b.link)
	}
	b.pendingDur, b.pendingTrak = dur, track
	b.conn.Start(size, &b.ref)
	b.inflight++
}

// onComplete books one finished segment transfer.
func (b *Background) onComplete(tr *simnet.Transfer) {
	b.inflight--
	rate := tr.Size * 8 / math.Max(tr.Completed-tr.Started, 1e-3)
	if b.samples == 0 {
		b.ewma = rate
	} else {
		b.ewma = b.cfg.EWMAAlpha*rate + (1-b.cfg.EWMAAlpha)*b.ewma
	}
	b.samples++
	b.totalBytes += tr.Size
	b.bufferSec += b.pendingDur
	b.queue = append(b.queue, bgSeg{track: b.pendingTrak, dur: b.pendingDur})
	b.nextSeg++
	b.maybeStartPlayback(tr.Completed)
}

func (b *Background) maybeStartPlayback(now float64) {
	if b.playing || b.finished {
		return
	}
	allDown := b.nextSeg >= b.segCount
	if b.bufferSec >= b.cfg.StartupBufferSec-eps || (allDown && b.bufferSec > eps) {
		b.playing = true
		if !b.started {
			b.started = true
			b.sum.StartupDelay = now - b.startAt
		} else if b.stallOpen {
			b.sum.StallCount++
			b.sum.StallSec += now - b.stallStart
			b.stallOpen = false
		}
	}
}

// advancePlayback drains the fluid buffer to wall time t.
func (b *Background) advancePlayback(t float64) {
	for b.lastTime < t-eps {
		if !b.playing {
			b.lastTime = t
			return
		}
		limit := math.Min(b.bufferSec, b.cfg.MediaDuration-b.playhead)
		dt := t - b.lastTime
		adv := math.Min(dt, math.Max(0, limit))
		b.consume(adv)
		b.lastTime += adv
		if adv < dt-eps {
			b.playing = false
			if b.playhead >= b.cfg.MediaDuration-eps {
				b.finished = true
				b.lastTime = t
				return
			}
			b.stallOpen = true
			b.stallStart = b.lastTime
		}
	}
}

// consume plays adv seconds of media off the FIFO, folding displayed
// bitrate, time-on-track and switch counts as each stretch is shown.
func (b *Background) consume(adv float64) {
	if adv <= 0 {
		return
	}
	b.sum.PlayedSec += adv
	b.playhead += adv
	b.bufferSec = math.Max(0, b.bufferSec-adv)
	rem := adv
	for rem > eps && len(b.queue) > 0 {
		e := &b.queue[0]
		if !e.counted {
			if b.prevTrack >= 0 && e.track != b.prevTrack {
				b.sum.Switches++
				if d := e.track - b.prevTrack; d > 1 || d < -1 {
					b.sum.NonConsecutive++
				}
			}
			b.prevTrack = e.track
			e.counted = true
		}
		d := math.Min(rem, e.dur)
		b.sum.WeightedBitrateSec += b.cfg.Declared[e.track] * d
		b.sum.PlayedMediaSec += d
		b.sum.TimeOnTrack[e.track] += d
		e.dur -= d
		rem -= d
		if e.dur <= eps {
			b.queue = b.queue[1:]
		}
	}
}

// nextDeadline is the next time control state can change without a
// download completing: the buffer running dry, the media ending, or a
// paused download crossing the resume threshold.
func (b *Background) nextDeadline(now float64) float64 {
	if !b.playing {
		return math.Inf(1)
	}
	d := now + math.Min(b.bufferSec, b.cfg.MediaDuration-b.playhead)
	if b.pausedDl && b.nextSeg < b.segCount {
		d = math.Min(d, now+math.Max(0, b.bufferSec-b.resumeSec()))
	}
	return d
}

// finishRun finalizes the flow once and releases its connection.
func (b *Background) finishRun() {
	if b.done {
		return
	}
	end := math.Min(b.net.Now(), b.endAt())
	b.advancePlayback(end)
	b.playing = false
	if b.stallOpen {
		b.sum.StallCount++
		b.sum.StallSec += end - b.stallStart
		b.stallOpen = false
	}
	b.sum.TotalBytes = b.totalBytes
	if b.conn != nil {
		b.conn.Close()
	}
	b.done = true
}

// backgrounds is the oracle tier: Background flows behind the tier
// interface the Cohort implements, with per-flow objects in place of
// the cohort's slabs and a linear deadline scan in place of its heap.
type backgrounds struct {
	groupSlot
	flows    []*Background
	key      []float64 // member deadline; +Inf while not parked
	woken    []bool
	wakeList []int
	live     int
	observer func(*Background)
}

// addBackgrounds registers flows as one oracle tier (after every full
// session, like AddCohort); observer, when non-nil, is called once per
// flow as it finishes.
func (g *Group) addBackgrounds(flows []*Background, observer func(*Background)) error {
	t := &backgrounds{flows: flows, live: len(flows), observer: observer}
	for m, b := range flows {
		if err := g.join(b.net); err != nil {
			return err
		}
		b.ref = tierRef{t: t, idx: m}
		t.key = append(t.key, math.Inf(1))
		t.woken = append(t.woken, true) // first round: everyone is serviced once
		t.wakeList = append(t.wakeList, m)
	}
	g.tiers = append(g.tiers, t)
	return nil
}

func (t *backgrounds) wakeMember(m int) {
	if !t.woken[m] {
		t.woken[m] = true
		t.wakeList = append(t.wakeList, m)
	}
}

func (t *backgrounds) finish(b *Background) {
	if b.done {
		return
	}
	b.finishRun()
	t.live--
	if t.observer != nil {
		t.observer(b)
	}
}

func (t *backgrounds) service(now float64) int {
	for _, m := range t.wakeList {
		t.woken[m] = false
		b := t.flows[m]
		if b.done {
			continue
		}
		if now < b.startAt-eps {
			t.key[m] = b.startAt
			continue
		}
		if now >= b.endAt()-eps || b.finished {
			t.finish(b)
			t.key[m] = math.Inf(1)
			continue
		}
		b.issueRequests()
		d := b.nextDeadline(now)
		if e := b.endAt(); e < d {
			d = e
		}
		t.key[m] = d
	}
	t.wakeList = t.wakeList[:0]
	return t.live
}

func (t *backgrounds) wakeDue(now float64) {
	for m, k := range t.key {
		if k <= now+eps {
			t.key[m] = math.Inf(1)
			t.wakeMember(m)
		}
	}
}

func (t *backgrounds) advanceWoken(now float64) {
	sort.Ints(t.wakeList)
	for _, m := range t.wakeList {
		if b := t.flows[m]; !b.done {
			b.advancePlayback(now)
		}
	}
}

func (t *backgrounds) minKey() float64 {
	min := math.Inf(1)
	for _, k := range t.key {
		min = math.Min(min, k)
	}
	return min
}

func (t *backgrounds) inflightSum() int {
	s := 0
	for _, b := range t.flows {
		if !b.done {
			s += b.inflight
		}
	}
	return s
}

func (t *backgrounds) finishAll() {
	for _, b := range t.flows {
		t.finish(b)
	}
}

func (t *backgrounds) wakeOwner(m int) bool {
	if t.flows[m].done {
		return false
	}
	t.wakeMember(m)
	return true
}

func (t *backgrounds) complete(m int, tr *simnet.Transfer) {
	if b := t.flows[m]; !b.done {
		b.onComplete(tr)
	}
}

// bgDraw is one drawn cohort member: its config (service template plus
// per-viewer duration), arrival, and access trace.
type bgDraw struct {
	cfg     BackgroundConfig
	startAt float64
	trace   *netem.Profile
	full    bool // mixed test: run the full player instead
}

// drawBackgrounds generates a seeded member population over a few
// service-like templates: distinct ladders, segment grids and media
// durations, with per-member session durations and arrivals.
func drawBackgrounds(rng *rand.Rand, n int, mixed bool) []bgDraw {
	traces := netem.CellularSet()
	nTmpl := 2 + rng.Intn(3)
	tmpls := make([]BackgroundConfig, nTmpl)
	for i := range tmpls {
		nr := 2 + rng.Intn(4)
		ladder := make([]float64, nr)
		base := 2e5 * (1 + rng.Float64()*2)
		for r := range ladder {
			ladder[r] = math.Round(base * math.Pow(1.5+rng.Float64(), float64(r)))
		}
		tmpls[i] = BackgroundConfig{
			Declared:        ladder,
			SegmentDuration: float64(2 + 2*rng.Intn(3)),
			MediaDuration:   30 + rng.Float64()*90,
		}
		if rng.Intn(2) == 0 {
			tmpls[i].SafetyFactor = 1.6
		}
	}
	draws := make([]bgDraw, n)
	for i := range draws {
		cfg := tmpls[rng.Intn(nTmpl)]
		cfg.SessionDuration = 15 + rng.Float64()*90
		draws[i] = bgDraw{
			cfg:     cfg,
			startAt: rng.Float64() * 20,
			trace:   traces[rng.Intn(len(traces))],
			full:    mixed && rng.Intn(3) == 0,
		}
	}
	return draws
}

// steppedEdge builds an edge profile whose value actually changes every
// few seconds, so the scenario exercises profile-switch handling, not
// just constant links.
func steppedEdge(rng *rand.Rand, mbps float64, dur float64) *netem.Profile {
	n := int(dur)
	s := make([]float64, n)
	v := mbps * 1e6
	for i := range s {
		if i%4 == 0 {
			v = mbps * 1e6 * (0.5 + rng.Float64())
		}
		s[i] = math.Round(v)
	}
	return &netem.Profile{Name: "steppedEdge", SampleDur: 1, Samples: s}
}

// cloneSummary deep-copies a Summary so slab-aliasing views survive
// comparison after the cohort is gone.
func cloneSummary(s Summary) Summary {
	s.TimeOnTrack = append([]float64(nil), s.TimeOnTrack...)
	return s
}

// runAsBackgrounds executes the draws as individual Background flows
// and returns their Summaries in member order.
func runAsBackgrounds(t *testing.T, scfg simnet.Config, edge *netem.Profile, draws []bgDraw) []Summary {
	t.Helper()
	net := simnet.New(scfg, edge)
	g := NewGroup()
	bgs := make([]*Background, len(draws))
	for i, d := range draws {
		b := NewBackground(d.cfg, net)
		b.SetStartAt(d.startAt)
		b.SetAccessLink(net.NewAccessLink(d.trace))
		bgs[i] = b
	}
	if err := g.addBackgrounds(bgs, nil); err != nil {
		t.Fatal(err)
	}
	g.Run()
	out := make([]Summary, len(bgs))
	for i, b := range bgs {
		out[i] = cloneSummary(*b.Summary())
	}
	return out
}

// runAsCohort executes the same draws as one Cohort and returns the
// member Summaries in member order.
func runAsCohort(t *testing.T, scfg simnet.Config, edge *netem.Profile, draws []bgDraw) []Summary {
	t.Helper()
	net := simnet.New(scfg, edge)
	g := NewGroup()
	c := NewCohort(net)
	for _, d := range draws {
		i := c.Add(d.cfg)
		c.SetStartAt(i, d.startAt)
		c.SetAccessLink(i, net.NewAccessLink(d.trace))
	}
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	g.Run()
	out := make([]Summary, c.Len())
	for i := range out {
		out[i] = cloneSummary(c.MemberSummary(i))
	}
	return out
}

// compareSummaries requires byte-identical member digests.
func compareSummaries(t *testing.T, ref, got []Summary) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("member count: %d backgrounds vs %d cohort members", len(ref), len(got))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], got[i]) {
			t.Errorf("member %d diverged:\n background: %+v\n cohort:     %+v", i, ref[i], got[i])
		}
	}
}

// TestCohortMatchesBackgrounds is the core differential sweep: seeds ×
// contention levels (edge budgets from starved to ample), stepped edge
// profiles, cellular access traces, mixed service templates. Every
// member's Summary must be byte-identical between the per-session and
// the vectorized run.
func TestCohortMatchesBackgrounds(t *testing.T) {
	for _, edge := range []struct {
		name string
		mbps float64
	}{{"tight", 2}, {"medium", 10}, {"loose", 60}} {
		for seed := int64(0); seed < 9; seed++ {
			seed := seed
			mbps := edge.mbps
			t.Run(fmt.Sprintf("%s/seed%d", edge.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				draws := drawBackgrounds(rng, 3+rng.Intn(10), false)
				p := steppedEdge(rng, mbps, 200)
				ref := runAsBackgrounds(t, simnet.DefaultConfig(), p, draws)
				got := runAsCohort(t, simnet.DefaultConfig(), p, draws)
				compareSummaries(t, ref, got)
			})
		}
	}
}

// TestCohortMatchesBackgroundsCellEngine repeats the differential sweep
// with the simnet cell engine underneath — the exact configuration the
// fleet runs — so the cohort and the anchored-flow engine are proven to
// compose bit-exactly.
func TestCohortMatchesBackgroundsCellEngine(t *testing.T) {
	scfg := simnet.DefaultConfig()
	scfg.Engine = simnet.EngineCell
	for seed := int64(20); seed < 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			draws := drawBackgrounds(rng, 3+rng.Intn(10), false)
			p := steppedEdge(rng, 3+rng.Float64()*30, 200)
			ref := runAsBackgrounds(t, scfg, p, draws)
			got := runAsCohort(t, scfg, p, draws)
			compareSummaries(t, ref, got)
		})
	}
}

// TestCohortMixedWithSessions interleaves full player sessions with the
// background tier — the fleet cell layout — and requires both the
// sessions' Summaries and the background members' Summaries to be
// byte-identical whether the backgrounds run individually or as one
// cohort. The full sessions double as witnesses: if the cohort
// perturbed the shared network in any way, their byte streams would
// shift.
func TestCohortMixedWithSessions(t *testing.T) {
	org := buildOrigin(t, 4, false, media.VBR)
	for seed := int64(40); seed < 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			draws := drawBackgrounds(rng, 4+rng.Intn(8), true)
			p := steppedEdge(rng, 4+rng.Float64()*20, 400)

			run := func(vectorized bool) ([]Summary, []Summary) {
				net := simnet.New(simnet.DefaultConfig(), p)
				g := NewGroup()
				var sessions []*Session
				var bgs []*Background
				c := NewCohort(net)
				for _, d := range draws {
					if d.full {
						s, err := NewSession(baseConfig(), org, net)
						if err != nil {
							t.Fatal(err)
						}
						s.SetLean()
						s.SetStartAt(d.startAt)
						s.SetAccessLink(net.NewAccessLink(d.trace))
						if err := g.Add(s); err != nil {
							t.Fatal(err)
						}
						sessions = append(sessions, s)
						continue
					}
					if vectorized {
						i := c.Add(d.cfg)
						c.SetStartAt(i, d.startAt)
						c.SetAccessLink(i, net.NewAccessLink(d.trace))
					} else {
						b := NewBackground(d.cfg, net)
						b.SetStartAt(d.startAt)
						b.SetAccessLink(net.NewAccessLink(d.trace))
						bgs = append(bgs, b)
					}
				}
				if vectorized && c.Len() > 0 {
					if err := g.AddCohort(c); err != nil {
						t.Fatal(err)
					}
				}
				if len(bgs) > 0 {
					if err := g.addBackgrounds(bgs, nil); err != nil {
						t.Fatal(err)
					}
				}
				g.Run()
				var sessSums, bgSums []Summary
				for _, s := range sessions {
					sessSums = append(sessSums, cloneSummary(*s.Summary()))
				}
				if vectorized {
					for i := 0; i < c.Len(); i++ {
						bgSums = append(bgSums, cloneSummary(c.MemberSummary(i)))
					}
				} else {
					for _, b := range bgs {
						bgSums = append(bgSums, cloneSummary(*b.Summary()))
					}
				}
				return sessSums, bgSums
			}

			refSess, refBg := run(false)
			gotSess, gotBg := run(true)
			compareSummaries(t, refSess, gotSess)
			compareSummaries(t, refBg, gotBg)
		})
	}
}

// TestCohortObserverStreaming pins the observer contract: called
// exactly once per member, with a scratch Summary equal to the member's
// final digest.
func TestCohortObserverStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := drawBackgrounds(rng, 8, false)
	p := steppedEdge(rng, 8, 200)
	net := simnet.New(simnet.DefaultConfig(), p)
	g := NewGroup()
	c := NewCohort(net)
	for _, d := range draws {
		i := c.Add(d.cfg)
		c.SetStartAt(i, d.startAt)
		c.SetAccessLink(i, net.NewAccessLink(d.trace))
	}
	seen := make(map[int]Summary)
	c.SetObserver(func(i int, s *Summary) {
		if _, dup := seen[i]; dup {
			t.Errorf("observer called twice for member %d", i)
		}
		seen[i] = cloneSummary(*s)
	})
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	g.Run()
	if len(seen) != c.Len() {
		t.Fatalf("observer saw %d members, want %d", len(seen), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		if want := cloneSummary(c.MemberSummary(i)); !reflect.DeepEqual(seen[i], want) {
			t.Errorf("member %d: observed %+v, final %+v", i, seen[i], want)
		}
	}
}

// TestCohortRejectsLateAdd pins the freeze contract: a cohort cannot
// grow after joining a group.
func TestCohortRejectsLateAdd(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(), netem.Constant("c", 1e6, 60))
	g := NewGroup()
	c := NewCohort(net)
	c.Add(BackgroundConfig{Declared: []float64{1e5}, SegmentDuration: 4, MediaDuration: 20})
	if err := g.AddCohort(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after AddCohort did not panic")
		}
	}()
	c.Add(BackgroundConfig{Declared: []float64{1e5}, SegmentDuration: 4, MediaDuration: 20})
}
