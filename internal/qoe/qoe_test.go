package qoe_test

import (
	"math"
	"testing"

	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/qoe"
	"repro/internal/services"
	"repro/internal/traffic"
	"repro/internal/uimon"
)

// TestFromResultCrafted checks the metric arithmetic on a hand-built
// session result.
func TestFromResultCrafted(t *testing.T) {
	res := &player.Result{
		MediaDuration:   40,
		SegmentCount:    10,
		SegmentDuration: 4,
		Declared:        []float64{500e3, 1e6, 2e6},
		StartupDelay:    2,
		Stalls:          []player.Stall{{Start: 10, End: 13}, {Start: 20, End: 21}},
		PlayIntervals:   []player.PlayInterval{{WallStart: 2, WallEnd: 10}, {WallStart: 13, WallEnd: 20}},
		Displayed:       []int{0, 0, 1, 1, 2, -1, -1, -1, -1, -1},
		TotalBytes:      10e6,
		WastedBytes:     1e6,
	}
	rep := qoe.FromResult(res)
	if rep.StartupDelay != 2 || rep.StallCount != 2 || rep.StallSec != 4 {
		t.Fatalf("startup/stalls: %+v", rep)
	}
	// Displayed: 2×500k + 2×1M + 1×2M over 5 segments of 4 s.
	want := (2*500e3 + 2*1e6 + 1*2e6) / 5
	if math.Abs(rep.AvgBitrate-want) > 1 {
		t.Fatalf("avg bitrate %v, want %v", rep.AvgBitrate, want)
	}
	if rep.Switches != 2 || rep.NonConsecutive != 0 {
		t.Fatalf("switches %d/%d", rep.Switches, rep.NonConsecutive)
	}
	if got := rep.PctTimeBelow(res.Declared, 1e6); math.Abs(got-8.0/15) > 1e-9 {
		t.Fatalf("PctTimeBelow = %v", got)
	}
	if rep.PlayedSec != 15 {
		t.Fatalf("played %v", rep.PlayedSec)
	}
}

func TestNonConsecutiveSwitches(t *testing.T) {
	res := &player.Result{
		MediaDuration: 16, SegmentCount: 4, SegmentDuration: 4,
		Declared:  []float64{1, 2, 3},
		Displayed: []int{0, 2, 0, 1},
	}
	rep := qoe.FromResult(res)
	if rep.Switches != 3 || rep.NonConsecutive != 2 {
		t.Fatalf("switches %d non-consecutive %d", rep.Switches, rep.NonConsecutive)
	}
}

// TestInferWastedBytesChargesSupersededCopy downloads index 1 twice and
// checks that the copy losing to the later completion is the one
// charged as waste, whichever of the two appears first in start order.
func TestInferWastedBytesChargesSupersededCopy(t *testing.T) {
	pres := &manifest.Presentation{Video: []*manifest.Rendition{
		{ID: 0, Type: media.TypeVideo, DeclaredBitrate: 500e3},
		{ID: 1, Type: media.TypeVideo, DeclaredBitrate: 1e6},
	}}
	seg := func(index, track int, bytes int64, start, end float64) traffic.SegmentDownload {
		return traffic.SegmentDownload{
			Type: media.TypeVideo, Track: track, Index: index, Duration: 4,
			MediaStart: 4 * float64(index), Bytes: bytes, Start: start, End: end,
		}
	}
	samples := []uimon.Sample{{T: 0, Position: 0}, {T: 1, Position: 0}, {T: 20, Position: 12}}
	cases := []struct {
		name       string
		segs       []traffic.SegmentDownload
		wasted     float64
		shownTrack int // track the inference displays for index 1
	}{
		// The later copy completes later: it supersedes the first, whose
		// 1000 bytes are waste.
		{"later start completes later", []traffic.SegmentDownload{
			seg(0, 0, 500, 0, 1), seg(1, 0, 1000, 1, 2), seg(2, 0, 500, 2, 3), seg(1, 1, 3000, 3, 5),
		}, 1000, 1},
		// The later-starting copy completes first: it is superseded by
		// the earlier-starting one and its 3000 bytes are waste.
		{"later start completes earlier", []traffic.SegmentDownload{
			seg(0, 0, 500, 0, 1), seg(1, 0, 1000, 1, 6), seg(2, 0, 500, 2, 3), seg(1, 1, 3000, 3, 5),
		}, 3000, 0},
	}
	for _, c := range cases {
		inf := qoe.Infer(&traffic.Result{Presentation: pres, Segments: c.segs}, samples)
		rep := inf.Report
		if rep.WastedBytes != c.wasted {
			t.Errorf("%s: wasted %v bytes, want %v", c.name, rep.WastedBytes, c.wasted)
		}
		if rep.DataUsageBytes != 5000 {
			t.Errorf("%s: data usage %v, want 5000", c.name, rep.DataUsageBytes)
		}
		if got := rep.TimeOnTrack[1] > 0; got != (c.shownTrack == 1) {
			t.Errorf("%s: time on track 1 = %v, want index 1 shown at track %d", c.name, rep.TimeOnTrack, c.shownTrack)
		}
	}
}

// TestInferenceClosure is the paper's methodology validated end to end:
// QoE recovered purely from traffic + 1 Hz UI samples must agree with the
// simulator's ground truth within the 1 s observation granularity.
func TestInferenceClosure(t *testing.T) {
	cases := []struct {
		svc     string
		profile int
	}{
		{"H1", 3}, {"H5", 1}, {"D2", 4}, {"D4", 2}, {"S2", 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.svc, func(t *testing.T) {
			svc := services.ByName(c.svc)
			res, err := svc.Run(netem.Cellular(c.profile), 600, nil)
			if err != nil {
				t.Fatal(err)
			}
			truth := qoe.FromResult(res)
			tr, err := traffic.Analyze(c.svc, res.Transactions)
			if err != nil {
				t.Fatal(err)
			}
			inf := qoe.Infer(tr, uimon.FromResult(res))
			got := inf.Report

			if math.Abs(got.StartupDelay-truth.StartupDelay) > 2 {
				t.Errorf("startup inferred %.1f vs truth %.1f", got.StartupDelay, truth.StartupDelay)
			}
			if math.Abs(got.StallSec-truth.StallSec) > 3+2*float64(truth.StallCount) {
				t.Errorf("stall sec inferred %.1f vs truth %.1f", got.StallSec, truth.StallSec)
			}
			if truth.AvgBitrate > 0 {
				if rel := math.Abs(got.AvgBitrate-truth.AvgBitrate) / truth.AvgBitrate; rel > 0.1 {
					t.Errorf("avg bitrate inferred %.0f vs truth %.0f (%.0f%% off)",
						got.AvgBitrate, truth.AvgBitrate, rel*100)
				}
			}
			// Data usage from traffic covers the media payload (documents
			// are not segments).
			if got.DataUsageBytes > truth.DataUsageBytes+1 {
				t.Errorf("inferred data %.0f exceeds truth %.0f", got.DataUsageBytes, truth.DataUsageBytes)
			}
			if got.DataUsageBytes < 0.95*truth.DataUsageBytes-1e5 {
				t.Errorf("inferred data %.0f far below truth %.0f", got.DataUsageBytes, truth.DataUsageBytes)
			}
		})
	}
}

// TestBufferInferenceClosure checks §2.5: inferred buffer occupancy =
// download progress − playback progress must track the simulator's real
// buffer within observation granularity. H5 does no segment replacement,
// so traffic-only inference should be tight (with SR the inference
// briefly overestimates while dropped segments await their re-download —
// a blind spot the paper's methodology shares).
func TestBufferInferenceClosure(t *testing.T) {
	svc := services.ByName("H5")
	res, err := svc.Run(netem.Cellular(5), 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.Analyze("H5", res.Transactions)
	if err != nil {
		t.Fatal(err)
	}
	inf := qoe.Infer(tr, uimon.FromResult(res))
	truth := map[float64]player.BufferSample{}
	for _, s := range res.Samples {
		truth[s.T] = s
	}
	checked, worst := 0, 0.0
	for _, bp := range inf.Buffer {
		ts, ok := truth[bp.T]
		if !ok || bp.T < 30 {
			continue
		}
		diff := math.Abs(bp.VideoSec - ts.VideoSec)
		if diff > worst {
			worst = diff
		}
		checked++
		// One segment duration + 2 s sampling slack.
		if diff > res.SegmentDuration+3 {
			t.Fatalf("t=%.0f inferred %.1f s vs true %.1f s", bp.T, bp.VideoSec, ts.VideoSec)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d buffer points checked", checked)
	}
	t.Logf("buffer inference worst error %.2f s over %d points", worst, checked)
}
