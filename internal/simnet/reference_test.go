package simnet

// The reference implementation: the pre-event-engine simulator, kept
// verbatim (rebuild the flowing set and re-sort caps every
// constant-rate interval, query the profile directly). The differential
// tests below drive it and the scan oracle (scanengine_test.go) through
// identical randomized workloads and require every observable — clock,
// delivered bytes, completion order and times, remaining bytes — to
// match bit-for-bit.
//
// Workloads keep at most 8 concurrent connections: within sort.Slice's
// insertion-sort regime (stable ties) the reference permutation is fully
// determined, so exact float equality is a sound requirement.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netem"
)

type refTransfer struct {
	size      float64
	started   float64
	flowAt    float64
	completed float64
	done      bool
	remaining float64
	rate      float64
	conn      *refConn
}

type refConn struct {
	net         *refNetwork
	established bool
	closed      bool
	capBps      float64
	staticCap   float64
	nextGrow    float64
	lastActive  float64
	cur         *refTransfer
}

type refNetwork struct {
	cfg       Config
	profile   *netem.Profile
	now       float64
	conns     []*refConn
	dialed    int
	steadyCap float64
	delivered float64
}

func newRefNetwork(cfg Config, p *netem.Profile) *refNetwork {
	cfg = cfg.withDefaults()
	n := &refNetwork{cfg: cfg, profile: p}
	n.steadyCap = 2 * p.Max() / 8
	if n.steadyCap <= 0 {
		n.steadyCap = math.Inf(1)
	}
	return n
}

func (n *refNetwork) Dial() *refConn {
	c := &refConn{net: n, capBps: math.Inf(1), staticCap: math.Inf(1)}
	if seq := n.cfg.ConnCapSequence; len(seq) > 0 {
		c.staticCap = seq[n.dialed%len(seq)] / 8
	}
	n.dialed++
	n.conns = append(n.conns, c)
	return c
}

func (n *refNetwork) removeConn(c *refConn) {
	for i, x := range n.conns {
		if x == c {
			n.conns = append(n.conns[:i], n.conns[i+1:]...)
			return
		}
	}
}

func (c *refConn) InSlowStart() bool { return !math.IsInf(c.capBps, 1) }

func (c *refConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.net.removeConn(c)
}

func (c *refConn) Start(size float64) *refTransfer {
	if c.closed || c.cur != nil {
		panic("refConn: bad Start")
	}
	if size < 1 {
		size = 1
	}
	cfg := c.net.cfg
	now := c.net.now
	latency := cfg.RTT
	initialCap := cfg.InitialWindowSegments * cfg.MSS / cfg.RTT
	if !c.established {
		latency += cfg.HandshakeRTTs * cfg.RTT
		c.established = true
		c.capBps = initialCap
	} else if cfg.SlowStartAfterIdle && now-c.lastActive > cfg.IdleResetAfter {
		c.capBps = initialCap
	}
	tr := &refTransfer{
		conn:      c,
		size:      size,
		started:   now,
		flowAt:    now + latency,
		remaining: size,
	}
	c.cur = tr
	c.nextGrow = tr.flowAt + cfg.RTT
	return tr
}

func (n *refNetwork) Step(until float64) []*refTransfer {
	if until < n.now {
		panic("refNetwork: Step backwards")
	}
	const epsBytes = 1e-6
	for n.now < until {
		var flowing []*refTransfer
		next := until
		for _, c := range n.conns {
			tr := c.cur
			if tr == nil {
				continue
			}
			if tr.flowAt > n.now {
				if tr.flowAt < next {
					next = tr.flowAt
				}
				continue
			}
			flowing = append(flowing, tr)
			if c.InSlowStart() && c.nextGrow < next {
				next = c.nextGrow
			}
		}
		if b := n.profile.NextBoundary(n.now); b < next {
			next = b
		}

		if len(flowing) == 0 {
			n.now = next
			n.grow()
			continue
		}

		capacity := n.profile.At(n.now) / 8
		refAllocate(capacity, flowing)

		tEvent := next
		for _, tr := range flowing {
			if tr.rate > 0 {
				if tDone := n.now + tr.remaining/tr.rate; tDone < tEvent {
					tEvent = tDone
				}
			}
		}
		if tEvent <= n.now {
			tEvent = math.Nextafter(n.now, math.Inf(1))
		}

		dt := tEvent - n.now
		var completed []*refTransfer
		for _, tr := range flowing {
			d := tr.rate * dt
			if d > tr.remaining {
				d = tr.remaining
			}
			tr.remaining -= d
			n.delivered += d
			if tr.remaining <= epsBytes {
				tr.remaining = 0
				tr.done = true
				tr.completed = tEvent
				tr.conn.cur = nil
				tr.conn.lastActive = tEvent
				completed = append(completed, tr)
			}
		}
		n.now = tEvent
		n.grow()
		if len(completed) > 0 {
			return completed
		}
	}
	return nil
}

func (n *refNetwork) grow() {
	for _, c := range n.conns {
		if c.cur == nil || !c.InSlowStart() {
			continue
		}
		for c.nextGrow <= n.now && c.InSlowStart() {
			c.capBps *= 2
			c.nextGrow += n.cfg.RTT
			if c.capBps >= n.steadyCap {
				c.capBps = math.Inf(1)
			}
		}
	}
}

func refAllocate(capacity float64, flowing []*refTransfer) {
	type item struct {
		tr  *refTransfer
		cap float64
	}
	items := make([]item, len(flowing))
	for i, tr := range flowing {
		cap := tr.conn.capBps
		if tr.conn.staticCap < cap {
			cap = tr.conn.staticCap
		}
		items[i] = item{tr, cap}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].cap < items[j].cap })
	remainingC := capacity
	remainingN := len(items)
	for _, it := range items {
		share := remainingC / float64(remainingN)
		r := it.cap
		if r > share {
			r = share
		}
		if r < 0 {
			r = 0
		}
		it.tr.rate = r
		remainingC -= r
		remainingN--
	}
}

// randomProfile builds a short looping profile with occasional zero and
// repeated samples so boundary handling and tied rates get exercised.
func randomProfile(rng *rand.Rand) *netem.Profile {
	n := 2 + rng.Intn(12)
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(6) {
		case 0:
			s[i] = 0
		case 1:
			if i > 0 {
				s[i] = s[i-1]
			} else {
				s[i] = 1e6
			}
		default:
			s[i] = math.Round(rng.Float64()*9e6) + 1e5
		}
	}
	return &netem.Profile{Name: "rand", SampleDur: 1, Samples: s}
}

func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		RTT:                0.02 + rng.Float64()*0.15,
		SlowStartAfterIdle: rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		cfg.HandshakeRTTs = 2
	}
	if rng.Intn(4) == 0 {
		cfg.ConnCapSequence = []float64{2e6, 8e6, 1e6}
	}
	return cfg
}

// pairState tracks one connection in both engines plus its in-flight
// transfer pair.
type pairState struct {
	c  *Conn
	rc *refConn
	tr *Transfer
	rt *refTransfer
}

// TestDifferentialVsReference drives the scan oracle and the
// reference implementation through the same randomized workloads —
// starts, idle gaps, closes and redials, deadline steps — and requires
// exact equality of every observable after every event.
func TestDifferentialVsReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := randomProfile(rng)
			cfg := randomConfig(rng)
			n := New(cfg, p)
			rn := newRefNetwork(cfg, p)

			nconn := 1 + rng.Intn(8)
			pairs := make([]*pairState, nconn)
			for i := range pairs {
				pairs[i] = &pairState{c: n.Dial(), rc: rn.Dial()}
			}

			check := func(what string) {
				t.Helper()
				if n.Now() != rn.now {
					t.Fatalf("%s: now %v != ref %v", what, n.Now(), rn.now)
				}
				if n.Delivered() != rn.delivered {
					t.Fatalf("%s: delivered %v != ref %v", what, n.Delivered(), rn.delivered)
				}
				for i, ps := range pairs {
					if ps.tr == nil {
						continue
					}
					if ps.tr.Done != ps.rt.done {
						t.Fatalf("%s: conn %d done %v != ref %v", what, i, ps.tr.Done, ps.rt.done)
					}
					if ps.tr.Remaining() != ps.rt.remaining {
						t.Fatalf("%s: conn %d remaining %v != ref %v", what, i, ps.tr.Remaining(), ps.rt.remaining)
					}
					if ps.tr.Done && ps.tr.Completed != ps.rt.completed {
						t.Fatalf("%s: conn %d completed %v != ref %v", what, i, ps.tr.Completed, ps.rt.completed)
					}
				}
			}

			stepBoth := func(until float64) {
				for {
					done := n.stepScan(until)
					rdone := rn.Step(until)
					if len(done) != len(rdone) {
						t.Fatalf("step(%v): %d completions != ref %d", until, len(done), len(rdone))
					}
					for i := range done {
						if done[i].Conn != done[i].Conn.net.conns[done[i].Conn.idx] {
							t.Fatalf("step(%v): conn index out of sync", until)
						}
						if done[i].Completed != rdone[i].completed || done[i].Size != rdone[i].size {
							t.Fatalf("step(%v): completion %d mismatch: %v/%v vs ref %v/%v",
								until, i, done[i].Completed, done[i].Size, rdone[i].completed, rdone[i].size)
						}
					}
					check(fmt.Sprintf("after step(%v)", until))
					if len(done) == 0 {
						return
					}
				}
			}

			for ev := 0; ev < 120; ev++ {
				switch op := rng.Intn(10); {
				case op < 5: // start a transfer on an idle connection
					ps := pairs[rng.Intn(len(pairs))]
					if ps.c.Busy() {
						continue
					}
					size := math.Round(rng.Float64()*4e6) + 1
					ps.tr = ps.c.Start(size, nil)
					ps.rt = ps.rc.Start(size)
				case op < 6: // close (possibly mid-flight) and redial
					i := rng.Intn(len(pairs))
					pairs[i].c.Close()
					pairs[i].rc.Close()
					pairs[i] = &pairState{c: n.Dial(), rc: rn.Dial()}
				case op < 7: // zero-length step (fast-return path)
					stepBoth(n.Now())
				default: // advance, sometimes far enough to trigger idle reset
					dt := rng.Float64() * 2
					if rng.Intn(4) == 0 {
						dt += 1.5
					}
					stepBoth(n.Now() + dt)
				}
			}
			// Drain everything still in flight.
			stepBoth(n.Now() + 500)
		})
	}
}

// TestAllocateFastPathsMatchGeneral pins the fast paths in cellAllocate
// — single flow, and all-uncapped without sorting — to the reference
// water-filling, exercising ties, static caps, zero and tiny capacity.
func TestAllocateFastPathsMatchGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := netem.Constant("c", 8e6, 10)
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(8)
		n := New(DefaultConfig(), p)
		flowing := make([]*Transfer, k)
		ref := make([]*refTransfer, k)
		for i := 0; i < k; i++ {
			c := n.Dial()
			rc := &refConn{capBps: math.Inf(1), staticCap: math.Inf(1)}
			switch rng.Intn(4) {
			case 0: // uncapped
			case 1: // slow-start cap, with deliberate ties across conns
				cap := float64(1+rng.Intn(3)) * 2e5
				c.capBps, rc.capBps = cap, cap
			case 2: // static cap
				cap := float64(1+rng.Intn(3)) * 1.5e5
				c.staticCap, rc.staticCap = cap, cap
			default: // both
				c.capBps, rc.capBps = 3e5, 3e5
				c.staticCap, rc.staticCap = 2.5e5, 2.5e5
			}
			tr := &Transfer{Conn: c, pos: i, cap: c.effCap()}
			flowing[i] = tr
			ref[i] = &refTransfer{conn: rc}
		}
		n.flowing = flowing
		capacity := []float64{0, 1, 1e5, 1.237e6, 5e6}[rng.Intn(5)]
		n.cellAllocate(capacity)
		refAllocate(capacity, ref)
		for i := range flowing {
			if flowing[i].Rate() != ref[i].rate {
				t.Fatalf("trial %d (k=%d, capacity=%g): rate[%d] = %v, reference %v",
					trial, k, capacity, i, flowing[i].Rate(), ref[i].rate)
			}
		}
	}
}

// TestStepFastReturnAtNow asserts Step(now) is a no-op even with
// transfers in flight, and allocates nothing.
func TestStepFastReturnAtNow(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	c.Start(1e6, nil)
	n.Step(2)
	before := n.Delivered()
	allocs := testing.AllocsPerRun(100, func() {
		if got := n.Step(n.Now()); got != nil {
			t.Fatalf("Step(now) returned %d transfers", len(got))
		}
	})
	if allocs != 0 {
		t.Errorf("Step(now) allocated %.1f times per call", allocs)
	}
	if n.Delivered() != before {
		t.Errorf("Step(now) delivered bytes")
	}
}

// TestStepHotPathZeroAlloc pins the core promise of the event engine:
// once warmed up, advancing the simulation allocates nothing — not for
// scratch slices, not for rate allocation, and (with Recycle) not for
// Transfer objects.
func TestStepHotPathZeroAlloc(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 10e6, 100)) // loops
	conns := []*Conn{n.Dial(), n.Dial(), n.Dial()}
	// Warm up: grow all scratch buffers and the free list.
	for i := 0; i < 4; i++ {
		for _, c := range conns {
			c.Start(2e5, nil)
		}
		for delivered := 0; delivered < len(conns); {
			done := n.Step(1e9)
			delivered += len(done)
			for _, tr := range done {
				n.Recycle(tr)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, c := range conns {
			c.Start(2e5, nil)
		}
		delivered := 0
		for delivered < len(conns) {
			done := n.Step(1e9)
			delivered += len(done)
			for _, tr := range done {
				n.Recycle(tr)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("hot path allocated %.1f times per start/step/recycle cycle", allocs)
	}
}

// TestConservationInvariants is the seeded property test over multi-wave
// workloads (back-to-back requests, idle gaps, mid-flight closes): bytes
// delivered equal bytes drained from transfers exactly, completion times
// never decrease across Step returns, and the link is never
// over-delivered relative to the profile integral.
func TestConservationInvariants(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := randomProfile(rng)
			// Conservation needs a link that can actually drain.
			for i, s := range p.Samples {
				if s == 0 {
					p.Samples[i] = 5e5
				}
			}
			n := New(DefaultConfig(), p)
			k := 1 + rng.Intn(6)
			conns := make([]*Conn, k)
			for i := range conns {
				conns[i] = n.Dial()
			}
			var all []*Transfer
			var completedSum float64
			lastCompleted := 0.0
			for ev := 0; ev < 60; ev++ {
				for i, c := range conns {
					if !c.Busy() && rng.Intn(3) > 0 {
						all = append(all, c.Start(math.Round(rng.Float64()*2e6)+1, nil))
					}
					if rng.Intn(20) == 0 {
						c.Close() // abandons any in-flight transfer
						conns[i] = n.Dial()
					}
				}
				until := n.Now() + rng.Float64()*3
				for {
					done := n.Step(until)
					if len(done) == 0 {
						break
					}
					for _, tr := range done {
						if tr.Completed < lastCompleted {
							t.Fatalf("completion time went backwards: %v after %v", tr.Completed, lastCompleted)
						}
						lastCompleted = tr.Completed
						if tr.Completed < tr.FlowAt {
							t.Fatalf("completed %v before first byte %v", tr.Completed, tr.FlowAt)
						}
						completedSum += tr.Size
					}
				}
			}
			// Drain what's left on still-open connections.
			for deadline := n.Now() + 1000; n.Now() < deadline; {
				busy := false
				for _, c := range conns {
					if c.Busy() {
						busy = true
					}
				}
				if !busy {
					break
				}
				for _, tr := range n.Step(deadline) {
					lastCompleted = tr.Completed
					completedSum += tr.Size
				}
			}
			// Delivered bytes == bytes drained out of every transfer ever
			// started (completed in full, abandoned in part). Exact: both
			// sides accumulate the same d values in the same order only on
			// the delivered side, so allow accumulation-order slop of ulps.
			var drained float64
			for _, tr := range all {
				drained += tr.Size - tr.Remaining()
			}
			if diff := math.Abs(n.Delivered() - drained); diff > 1e-3 {
				t.Fatalf("delivered %v != drained %v (diff %g)", n.Delivered(), drained, diff)
			}
			if completedSum > n.Delivered()+1e-3 {
				t.Fatalf("completed bytes %v exceed delivered %v", completedSum, n.Delivered())
			}
			if n.Delivered()*8 > p.Integral(0, n.Now())+1 {
				t.Fatalf("delivered %v bits exceeds link integral %v", n.Delivered()*8, p.Integral(0, n.Now()))
			}
		})
	}
}

// TestRecycle covers free-list reuse and the in-flight guard.
func TestRecycle(t *testing.T) {
	n := New(DefaultConfig(), netem.Constant("c", 8e6, 100))
	c := n.Dial()
	tr := c.Start(1e5, nil)
	assertPanics(t, func() { n.Recycle(tr) }, "Recycle in-flight")
	for len(n.Step(100)) == 0 {
	}
	n.Recycle(tr)
	n.Recycle(nil) // no-op
	tr2 := c.Start(1e5, nil)
	if tr2 != tr {
		t.Errorf("Start did not reuse the recycled transfer")
	}
	if tr2.Done || tr2.Remaining() != 1e5 || tr2.Meta != nil {
		t.Errorf("recycled transfer not reset: %+v", tr2)
	}
}
