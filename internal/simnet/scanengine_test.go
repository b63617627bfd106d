package simnet

// The scan engine: the eager O(F)-per-event formulation, kept as the
// oracle the production engines are diffed against. Each event it
// promotes due first bytes, re-reads every active link's profile sample,
// reruns the max-min water-filling over the whole flowing set, and
// applies rate·dt to every flow. It is bit-identical to the
// rebuild-and-sort reference in reference_test.go (which
// TestDifferentialVsReference asserts exactly) and, unlike that
// reference, models access links and per-request upstream links, so the
// cell, vtime and backhaul suites diff against it.
//
// The oracle runs on an ordinary Network through stepScan instead of
// Step; it never enters the cell or virtual-time engine, so the network
// stays in neither mode and every flow's `remaining` is current after
// each event.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netem"
)

// engineScan selects the scan oracle in the differential harnesses
// (runWorkload, newEngineNet). Step never sees it.
const engineScan Engine = -1

// newEngineNet builds a network for one engine of a differential suite
// and returns its step function: stepScan for the oracle, Step for the
// production engines.
func newEngineNet(cfg Config, p *netem.Profile, engine Engine) (*Network, func(float64) []*Transfer) {
	if engine == engineScan {
		n := New(cfg, p)
		return n, n.stepScan
	}
	cfg.Engine = engine
	n := New(cfg, p)
	return n, n.Step
}

// stepScan is Step driven by the scan engine: advance to the earlier of
// `until` or the first completion batch.
func (n *Network) stepScan(until float64) []*Transfer {
	if until < n.now {
		panic(fmt.Sprintf("simnet: Step backwards from %v to %v", n.now, until))
	}
	for n.now < until {
		if completed := n.scanStepOnce(until); len(completed) > 0 {
			return completed
		}
	}
	return nil
}

// scanStepOnce advances the scan engine by one event and returns any
// completions (nil when the event was not a completion).
func (n *Network) scanStepOnce(until float64) []*Transfer {
	const epsBytes = 1e-6
	n.promote()

	// Next state-change event: the deadline, a pending transfer's
	// first byte, a slow-start window doubling, a bandwidth boundary
	// in the edge profile, or one in an active access link's profile.
	// The same pass refreshes each access link's cached rate at the
	// current time — all reads happen at n.now and each active link is
	// visited exactly once, so the refresh is order-independent.
	next := until
	if k := n.pendHeap.MinKey(); k < next {
		next = k
	}
	for _, tr := range n.flowing {
		c := tr.Conn
		if c.InSlowStart() && c.nextGrow < next {
			next = c.nextGrow
		}
	}
	for _, l := range n.links {
		if b := l.cursor.NextBoundary(n.now); b < next {
			next = b
		}
		l.rateBps = l.cursor.At(n.now)
	}
	if b := n.cursor.NextBoundary(n.now); b < next {
		next = b
	}

	if len(n.flowing) == 0 {
		n.now = next
		n.grow()
		return nil
	}

	// Allocate rates max-min fairly under the connection caps. Rates are
	// a pure function of the flowing set, the caps and the capacity, so
	// recomputing them every event gives the same bits a memo would.
	n.allocate(n.cursor.At(n.now) / 8)

	// Earliest completion in this constant-rate interval.
	tEvent := next
	for _, tr := range n.flowing {
		if tr.rate > 0 {
			if tDone := n.now + tr.remaining/tr.rate; tDone < tEvent {
				tEvent = tDone
			}
		}
	}
	if tEvent <= n.now {
		// Degenerate interval (floating point); nudge forward.
		tEvent = math.Nextafter(n.now, math.Inf(1))
	}

	dt := tEvent - n.now
	completed := n.completed[:0]
	for _, tr := range n.flowing {
		d := tr.rate * dt
		if d > tr.remaining {
			d = tr.remaining
		}
		tr.remaining -= d
		n.delivered += d
		if tr.remaining <= epsBytes {
			tr.remaining = 0
			tr.Done = true
			tr.Completed = tEvent
			tr.Conn.cur = nil
			tr.Conn.lastActive = tEvent
			completed = append(completed, tr)
		}
	}
	n.completed = completed
	for _, tr := range completed {
		n.removeFlowing(tr)
	}
	n.now = tEvent
	n.grow()
	return completed
}

// grow applies slow-start window doubling for connections whose doubling
// time has arrived. Only flowing transfers can grow: a pending
// transfer's first doubling (FlowAt+RTT) is always in the future, and an
// idle connection has no doubling events scheduled.
func (n *Network) grow() {
	for _, tr := range n.flowing {
		c := tr.Conn
		for c.nextGrow <= n.now && c.InSlowStart() {
			c.capBps *= 2
			c.nextGrow += n.cfg.RTT
			if c.capBps >= n.steadyCap {
				c.capBps = math.Inf(1)
			}
		}
	}
}

// allocate is the water-filling of the reference implementation over the
// live effective caps: ascending cap (stable for ties up to
// smallSortLen, as the reference's sort.Slice is there), with the same
// sequential share arithmetic.
func (n *Network) allocate(capacity float64) {
	items := n.items[:0]
	for _, tr := range n.flowing {
		items = append(items, capItem{tr, tr.Conn.effCap()})
	}
	if len(items) <= smallSortLen {
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && items[j].cap < items[j-1].cap; j-- {
				items[j], items[j-1] = items[j-1], items[j]
			}
		}
	} else {
		sort.Slice(items, func(i, j int) bool { return items[i].cap < items[j].cap })
	}
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
	n.items = items
}
