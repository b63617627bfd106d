// Package netem provides the network-emulation substrate of the study:
// piecewise-constant bandwidth profiles, the 14 synthetic cellular traces
// standing in for the paper's recorded ones (Figure 3), step and constant
// profiles for black-box probing, and a text codec for traces.
//
// The paper shaped a real WiFi link with the Linux tc tool while replaying
// throughput traces recorded over cellular; here a Profile plays the same
// role as the tc rate schedule, consumed by the deterministic network
// simulator in internal/simnet.
package netem

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Profile is a piecewise-constant bandwidth schedule. Sample i applies to
// the half-open interval [i*SampleDur, (i+1)*SampleDur). Beyond the last
// sample the profile repeats from the beginning, so sessions longer than a
// trace keep seeing realistic variation (the paper's traces match its 10
// minute sessions exactly; looping makes the length irrelevant).
type Profile struct {
	// Name identifies the profile, e.g. "cellular-03".
	Name string
	// SampleDur is the duration of each sample in seconds (1 for the
	// cellular traces, matching the paper's 1 s recording granularity).
	SampleDur float64
	// Samples holds the available bandwidth in bits/s per interval.
	Samples []float64
}

// Duration returns the total trace duration in seconds.
func (p *Profile) Duration() float64 { return float64(len(p.Samples)) * p.SampleDur }

// At returns the available bandwidth in bits/s at time t (t may exceed the
// trace duration; the trace loops).
func (p *Profile) At(t float64) float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	i := int(math.Floor(t/p.SampleDur)) % len(p.Samples)
	if i < 0 {
		i += len(p.Samples)
	}
	return p.Samples[i]
}

// NextBoundary returns the earliest time strictly greater than t at which
// the bandwidth may change.
func (p *Profile) NextBoundary(t float64) float64 {
	if len(p.Samples) == 0 {
		return math.Inf(1)
	}
	n := math.Floor(t/p.SampleDur) + 1
	b := n * p.SampleDur
	if b <= t { // guard against floating point slop
		b = (n + 1) * p.SampleDur
	}
	return b
}

// NextChange returns the earliest time strictly greater than t at which
// the bandwidth actually differs from its value at t, or +Inf when every
// sample is equal (the trace loops, so one changeless period means a
// changeless profile). It is the event-reducing refinement of
// NextBoundary: a piecewise-constant profile has a sample boundary every
// SampleDur, but an engine that anchors flow progress only needs to wake
// when the value changes.
func (p *Profile) NextChange(t float64) float64 {
	if len(p.Samples) == 0 {
		return math.Inf(1)
	}
	v := p.At(t)
	// Walk sample boundaries with the exact NextBoundary expressions; one
	// full period with no differing sample proves the profile constant.
	n := math.Floor(t/p.SampleDur) + 1
	b := n * p.SampleDur
	if b <= t { // guard against floating point slop, as NextBoundary does
		n++
		b = n * p.SampleDur
	}
	for k := 0; k < len(p.Samples); k++ {
		// Exact comparison on purpose: samples are stored values never
		// recomputed, so "changed" means the bits differ.
		if p.At(b) != v { //vodlint:allow floateq — change detection on stored, never-recomputed sample values
			return b
		}
		n++
		b = n * p.SampleDur
	}
	return math.Inf(1)
}

// Integral returns the number of bits deliverable in [a, b] at full link
// utilisation.
func (p *Profile) Integral(a, b float64) float64 {
	if b <= a || len(p.Samples) == 0 {
		return 0
	}
	total := 0.0
	t := a
	for t < b {
		next := math.Min(p.NextBoundary(t), b)
		total += p.At(t) * (next - t)
		t = next
	}
	return total
}

// Cursor is a monotone read position into a profile. Forward simulation
// queries the bandwidth at a non-decreasing sequence of times; a Cursor
// caches the sample window containing the last query so At and
// NextBoundary are O(1) amortised instead of doing a divide, floor and
// modulo per call, and Integral does not restart its boundary walk from
// scratch. On a cache miss the cursor recomputes the window with the
// exact same floating-point expressions as Profile.At/NextBoundary, so
// for the sample durations the repository ships (SampleDur 1, where
// t/SampleDur is exact) cursor reads are bit-identical to the Profile
// methods at any t, in any order.
//
// The zero Cursor is invalid; obtain one from Profile.Cursor.
type Cursor struct {
	p        *Profile
	lo, hi   float64 // cached window: queries in [lo, hi) hit
	val      float64 // sample value over the window
	hasCache bool

	// Change-window cache for NextChange: queries in [chgLo, chgHi) all
	// see the same value, so the next value change is chgHi itself.
	chgLo, chgHi float64
	hasChg       bool
}

// Cursor returns a cursor positioned before the start of the profile.
func (p *Profile) Cursor() Cursor { return Cursor{p: p} }

// seek reseeds the cursor's window at time t using the exact same
// floating-point expressions as Profile.At and Profile.NextBoundary.
func (c *Cursor) seek(t float64) {
	p := c.p
	if len(p.Samples) == 0 {
		c.val, c.lo, c.hi = 0, t, math.Inf(1)
		c.hasCache = true
		return
	}
	c.val = p.At(t)
	n := math.Floor(t/p.SampleDur) + 1
	b := n * p.SampleDur
	if b <= t { // guard against floating point slop, as NextBoundary does
		b = (n + 1) * p.SampleDur
	}
	c.lo, c.hi = t, b
	c.hasCache = true
}

// At returns the bandwidth in bits/s at time t (the trace loops),
// equal to Profile.At(t). Repeated calls with non-decreasing t amortise
// to O(1).
func (c *Cursor) At(t float64) float64 {
	if !c.hasCache || t < c.lo || t >= c.hi {
		c.seek(t)
	}
	return c.val
}

// NextBoundary returns the earliest time strictly greater than t at
// which the bandwidth may change, equal to Profile.NextBoundary(t).
func (c *Cursor) NextBoundary(t float64) float64 {
	if !c.hasCache || t < c.lo || t >= c.hi {
		c.seek(t)
	}
	return c.hi
}

// NextChange returns the earliest time strictly greater than t at which
// the bandwidth actually differs from its value at t, equal to
// Profile.NextChange(t). The result is cached over the whole constant
// stretch, so repeated calls with non-decreasing t are O(1) amortised
// even on profiles with long runs of equal samples (a constant profile
// answers +Inf forever after one scan).
func (c *Cursor) NextChange(t float64) float64 {
	if !c.hasCache || t < c.lo || t >= c.hi {
		c.seek(t)
	}
	if c.hasChg && t >= c.chgLo && t < c.chgHi {
		return c.chgHi
	}
	b := c.p.NextChange(t)
	c.chgLo, c.chgHi = t, b
	c.hasChg = true
	return b
}

// ValueNext returns the bandwidth at t and the earliest time after t at
// which it changes, equal to (At(t), NextChange(t)) in one amortised-O(1)
// advance: the seek is shared and the change scan reuses the cached
// window instead of re-deriving the value and first boundary.
func (c *Cursor) ValueNext(t float64) (val, next float64) {
	if !c.hasCache || t < c.lo || t >= c.hi {
		c.seek(t)
	}
	if !(c.hasChg && t >= c.chgLo && t < c.chgHi) {
		c.chgLo, c.chgHi = t, c.nextChangeFrom(t)
		c.hasChg = true
	}
	return c.val, c.chgHi
}

// nextChangeFrom is Profile.NextChange with the leading At(t) replaced by
// the cursor's cached window value (the caller holds the window
// invariant c.val == p.At(t)). For unit-duration samples the boundary
// times n*1 are exact integers, so the scan walks the sample slice by
// integer index — Samples[int(n) % len] is Profile.At(n) bit for bit —
// instead of paying a divide, floor and modulo per examined boundary.
func (c *Cursor) nextChangeFrom(t float64) float64 {
	p := c.p
	if len(p.Samples) == 0 {
		return math.Inf(1)
	}
	v := c.val
	n := math.Floor(t/p.SampleDur) + 1
	b := n * p.SampleDur
	if b <= t { // guard against floating point slop, as NextBoundary does
		n++
		b = n * p.SampleDur
	}
	if p.SampleDur == 1 {
		// Boundary n+k is sample (n+k) mod size; n+k is exact in float64.
		size := len(p.Samples)
		i := int(n) % size
		if i < 0 {
			i += size
		}
		for k, s := range p.Samples[i:] {
			// Exact comparison on purpose: samples are stored values never
			// recomputed, so "changed" means the bits differ.
			if s != v { //vodlint:allow floateq — change detection on stored, never-recomputed sample values
				return n + float64(k)
			}
		}
		for k, s := range p.Samples[:i] {
			if s != v { //vodlint:allow floateq — change detection on stored, never-recomputed sample values
				return n + float64(size-i+k)
			}
		}
		return math.Inf(1)
	}
	for k := 0; k < len(p.Samples); k++ {
		// Exact comparison on purpose, as above.
		if p.At(b) != v { //vodlint:allow floateq — change detection on stored, never-recomputed sample values
			return b
		}
		n++
		b = n * p.SampleDur
	}
	return math.Inf(1)
}

// Integral returns the bits deliverable in [a, b] at full utilisation,
// equal to Profile.Integral(a, b), advancing the cursor to b.
func (c *Cursor) Integral(a, b float64) float64 {
	if b <= a || len(c.p.Samples) == 0 {
		return 0
	}
	total := 0.0
	t := a
	for t < b {
		next := math.Min(c.NextBoundary(t), b)
		total += c.At(t) * (next - t)
		t = next
	}
	return total
}

// Average returns the mean bandwidth in bits/s over one trace period.
func (p *Profile) Average() float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range p.Samples {
		s += v
	}
	return s / float64(len(p.Samples))
}

// Min returns the minimum sample in bits/s.
func (p *Profile) Min() float64 {
	m := math.Inf(1)
	for _, v := range p.Samples {
		m = math.Min(m, v)
	}
	return m
}

// Max returns the maximum sample in bits/s.
func (p *Profile) Max() float64 {
	m := 0.0
	for _, v := range p.Samples {
		m = math.Max(m, v)
	}
	return m
}

// Slice returns the sub-profile covering [from, from+dur) seconds,
// snapped to sample boundaries.
func (p *Profile) Slice(from, dur float64) *Profile {
	start := int(math.Floor(from / p.SampleDur))
	n := int(math.Ceil(dur / p.SampleDur))
	out := &Profile{Name: fmt.Sprintf("%s[%g+%g]", p.Name, from, dur), SampleDur: p.SampleDur}
	for i := 0; i < n; i++ {
		out.Samples = append(out.Samples, p.Samples[(start+i)%len(p.Samples)])
	}
	return out
}

// Split cuts the profile into consecutive chunks of chunkDur seconds,
// discarding a final partial chunk. Figure 15 splits the 5 lowest 10-minute
// profiles into 50 one-minute profiles this way.
func (p *Profile) Split(chunkDur float64) []*Profile {
	per := int(chunkDur / p.SampleDur)
	if per <= 0 {
		return nil
	}
	var out []*Profile
	for i := 0; i+per <= len(p.Samples); i += per {
		out = append(out, &Profile{
			Name:      fmt.Sprintf("%s/%d", p.Name, len(out)+1),
			SampleDur: p.SampleDur,
			Samples:   append([]float64(nil), p.Samples[i:i+per]...),
		})
	}
	return out
}

// Constant returns a profile with fixed bandwidth bps for dur seconds.
func Constant(name string, bps, dur float64) *Profile {
	n := int(math.Ceil(dur))
	if n < 1 {
		n = 1
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = bps
	}
	return &Profile{Name: name, SampleDur: 1, Samples: s}
}

// Step returns a profile that stays at before until switchAt seconds and
// then at after until dur. The paper uses such "step function" profiles to
// probe adaptation to bandwidth increases and decreases (§3.3.4).
func Step(name string, before, after, switchAt, dur float64) *Profile {
	n := int(math.Ceil(dur))
	s := make([]float64, n)
	for i := range s {
		if float64(i) < switchAt {
			s[i] = before
		} else {
			s[i] = after
		}
	}
	return &Profile{Name: name, SampleDur: 1, Samples: s}
}

// Format writes the profile in the trace text format:
//
//	# <name>
//	sampledur <seconds>
//	<bits-per-second>
//	...
func (p *Profile) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", p.Name)
	fmt.Fprintf(bw, "sampledur %g\n", p.SampleDur)
	for _, v := range p.Samples {
		fmt.Fprintf(bw, "%g\n", v)
	}
	return bw.Flush()
}

// Parse reads a profile in the Format text format.
func Parse(r io.Reader) (*Profile, error) {
	sc := bufio.NewScanner(r)
	p := &Profile{SampleDur: 1}
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		switch {
		case s == "":
			continue
		case strings.HasPrefix(s, "#"):
			if p.Name == "" {
				p.Name = strings.TrimSpace(strings.TrimPrefix(s, "#"))
			}
		case strings.HasPrefix(s, "sampledur"):
			f, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(s, "sampledur")), 64)
			if err != nil || f <= 0 {
				return nil, fmt.Errorf("netem: line %d: bad sampledur %q", line, s)
			}
			p.SampleDur = f
		default:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("netem: line %d: bad sample %q", line, s)
			}
			p.Samples = append(p.Samples, f)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.Samples) == 0 {
		return nil, fmt.Errorf("netem: empty trace")
	}
	return p, nil
}

// SortByAverage orders profiles by ascending mean bandwidth and renames
// them "<prefix>-01".."<prefix>-NN", mirroring the paper's "we sort them
// based on their average bandwidth and denote them Profile 1 to 14".
func SortByAverage(prefix string, ps []*Profile) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Average() < ps[j].Average() })
	for i, p := range ps {
		p.Name = fmt.Sprintf("%s-%02d", prefix, i+1)
	}
}

// ParseSpec builds a profile from a compact command-line spec:
//
//	"3"                synthetic cellular profile 3
//	"const:2.5"        constant 2.5 Mbit/s
//	"step:4,0.8,200"   4 Mbit/s, dropping to 0.8 Mbit/s at t=200 s
//
// dur bounds the generated constant/step profiles in seconds.
func ParseSpec(spec string, dur float64) (*Profile, error) {
	switch {
	case strings.HasPrefix(spec, "const:"):
		m, err := strconv.ParseFloat(strings.TrimPrefix(spec, "const:"), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("netem: bad const spec %q", spec)
		}
		return Constant(spec, m*1e6, dur), nil
	case strings.HasPrefix(spec, "step:"):
		parts := strings.Split(strings.TrimPrefix(spec, "step:"), ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("netem: step spec needs before,after,switch-at: %q", spec)
		}
		var v [3]float64
		for i, s := range parts {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("netem: bad step spec %q", spec)
			}
			v[i] = f
		}
		return Step(spec, v[0]*1e6, v[1]*1e6, v[2], dur), nil
	default:
		i, err := strconv.Atoi(spec)
		if err != nil || i < 1 || i > CellularCount {
			return nil, fmt.Errorf("netem: profile must be 1..%d, const:<Mbps> or step:<Mbps>,<Mbps>,<s>", CellularCount)
		}
		return Cellular(i), nil
	}
}
