package qoe

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/services"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// inferBufferOracle is the per-sample buffer inference that the
// one-sort-per-call inferBuffer replaced, kept verbatim as its oracle.
func inferBufferOracle(tr *traffic.Result, samples []uimon.Sample) []BufferPoint {
	var out []BufferPoint
	for _, smp := range samples {
		pos := smp.Position
		v := contiguousEndOracle(tr.Segments, media.TypeVideo, smp.T, pos)
		a := contiguousEndOracle(tr.Segments, media.TypeAudio, smp.T, pos)
		out = append(out, BufferPoint{T: smp.T, VideoSec: math.Max(0, v-pos), AudioSec: math.Max(0, a-pos)})
	}
	return out
}

func contiguousEndOracle(segs []traffic.SegmentDownload, typ media.MediaType, t, pos float64) float64 {
	type span struct{ start, end float64 }
	var spans []span
	for _, s := range segs {
		if s.Type != typ || s.End > t {
			continue
		}
		spans = append(spans, span{s.MediaStart, s.MediaStart + s.Duration})
	}
	if len(spans) == 0 {
		return pos
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	end := pos
	for _, sp := range spans {
		if sp.start > end+1e-6 {
			break
		}
		if sp.end > end {
			end = sp.end
		}
	}
	return end
}

// sameBuffer requires the two inferences to agree point for point, with
// exact float equality.
func sameBuffer(got, want []BufferPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("point %d: %+v, oracle %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestInferBufferMatchesOracle runs all 12 services over several
// cellular traces and compares the inferred buffer with the oracle's.
func TestInferBufferMatchesOracle(t *testing.T) {
	for _, svc := range services.All() {
		for _, trace := range []int{1, 4, 8, 12} {
			res, err := svc.Run(netem.Cellular(trace), 600, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := traffic.Analyze(svc.Name, res.Transactions)
			if err != nil {
				t.Fatal(err)
			}
			samples := uimon.FromResult(res)
			if len(samples) == 0 || len(tr.Segments) == 0 {
				t.Fatalf("%s/trace %d: vacuous (%d samples, %d segments)", svc.Name, trace, len(samples), len(tr.Segments))
			}
			if err := sameBuffer(inferBuffer(tr, samples), inferBufferOracle(tr, samples)); err != nil {
				t.Fatalf("%s/trace %d: %v", svc.Name, trace, err)
			}
		}
	}
}

// randomSegments builds a shuffled download list that stresses the span
// chain: equal media starts, gaps of exactly the 1e-6 tolerance (and
// just past it), and completions out of start order.
func randomSegments(rng *rand.Rand, n int) []traffic.SegmentDownload {
	segs := make([]traffic.SegmentDownload, 0, n)
	start := 0.0
	for len(segs) < n {
		dur := float64(1 + rng.Intn(4))
		typ := media.TypeVideo
		if rng.Intn(3) == 0 {
			typ = media.TypeAudio
		}
		seg := traffic.SegmentDownload{Type: typ, MediaStart: start, Duration: dur, End: rng.Float64() * 100}
		segs = append(segs, seg)
		if rng.Intn(4) == 0 {
			// A second copy of the same start, shorter or longer.
			dup := seg
			dup.Duration = float64(1 + rng.Intn(4))
			dup.End = rng.Float64() * 100
			segs = append(segs, dup)
		}
		switch rng.Intn(5) {
		case 0:
			start += dur + 1e-6
		case 1:
			start += dur + 2e-6
		case 2:
			start += dur / 2
		default:
			start += dur
		}
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	return segs
}

func TestInferBufferMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 200; iter++ {
		tr := &traffic.Result{Segments: randomSegments(rng, 5+rng.Intn(60))}
		var samples []uimon.Sample
		for ts := 0.0; ts <= 100; ts += 1 + rng.Float64() {
			samples = append(samples, uimon.Sample{T: ts, Position: rng.Float64() * 40})
		}
		if err := sameBuffer(inferBuffer(tr, samples), inferBufferOracle(tr, samples)); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
	}
}

// TestInferBufferAllocsIndependentOfSamples pins the allocation count:
// the spans are sorted once per call, so a session sampled ten times as
// often allocates no more.
func TestInferBufferAllocsIndependentOfSamples(t *testing.T) {
	tr := &traffic.Result{Segments: randomSegments(rand.New(rand.NewSource(3)), 80)}
	samplesOf := func(n int) []uimon.Sample {
		s := make([]uimon.Sample, n)
		for i := range s {
			s[i] = uimon.Sample{T: float64(i) * 100 / float64(n), Position: float64(i) * 30 / float64(n)}
		}
		return s
	}
	few, many := samplesOf(20), samplesOf(200)
	allocsFew := testing.AllocsPerRun(20, func() { inferBuffer(tr, few) })
	allocsMany := testing.AllocsPerRun(20, func() { inferBuffer(tr, many) })
	if allocsMany != allocsFew {
		t.Fatalf("inferBuffer allocates %.0f times for %d samples but %.0f for %d", allocsFew, len(few), allocsMany, len(many))
	}
}
