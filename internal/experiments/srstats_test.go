package experiments

import (
	"testing"

	"repro/internal/expcache"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/replacement"
	"repro/internal/services"
)

// srStatsOracle is the map-based §4.1.1 what-if analysis that the
// single-pass srStatsFromResult replaced, kept verbatim as its oracle.
func srStatsOracle(res *player.Result) srRunStats {
	st := srRunStats{
		dataBytes: res.TotalBytes,
		baseBytes: res.TotalBytes,
		stallSec:  res.TotalStall(),
		wasted:    res.WastedBytes,
	}
	// Group video downloads per index, ordered by start time.
	perIndex := map[int][]player.Download{}
	for _, d := range res.Downloads {
		if d.Type != media.TypeVideo || d.End == 0 {
			continue
		}
		perIndex[d.Index] = append(perIndex[d.Index], d)
	}
	first := map[int]player.Download{}
	inBurst := false
	var ordered []player.Download
	for _, d := range res.Downloads {
		if d.Type == media.TypeVideo && d.End > 0 {
			ordered = append(ordered, d)
		}
	}
	seen := map[int]int{} // index -> latest track downloaded
	for _, d := range ordered {
		prev, again := seen[d.Index]
		if again {
			st.replacements++
			st.baseBytes -= d.Bytes
			switch {
			case d.Track < prev:
				st.lower++
			case d.Track == prev:
				st.equal++
			}
			if !inBurst {
				st.bursts++
				if d.Track <= prev {
					st.firstLowerEq++
				}
				inBurst = true
			}
		} else {
			first[d.Index] = d
			inBurst = false
		}
		seen[d.Index] = d.Track
	}
	// Displayed average (actual run) and what-if baseline using the
	// first download per displayed index.
	var w, wBase, dur float64
	for i, tr := range res.Displayed {
		if tr < 0 {
			continue
		}
		d := res.SegmentDuration
		if start := float64(i) * res.SegmentDuration; start+d > res.MediaDuration {
			d = res.MediaDuration - start
		}
		w += res.Declared[tr] * d
		base := tr
		if f, ok := first[i]; ok {
			base = f.Track
		}
		wBase += res.Declared[base] * d
		dur += d
	}
	if dur > 0 {
		st.avgBitrate = w / dur
		st.baseBitrate = wBase / dur
	}
	return st
}

// TestSRStatsMatchOracle checks srStatsFromResult against the oracle,
// every field exactly, over the sessions sr_whatif (H1 and H4 on the 14
// cellular profiles) and abl_srcap (the ExoPlayer model with no SR,
// each cap and uncapped) analyse.
func TestSRStatsMatchOracle(t *testing.T) {
	var results []*player.Result
	for _, name := range []string{"H1", "H4"} {
		svc := services.ByName(name)
		for _, p := range cellular() {
			res, err := run(svc, p, 600)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	org, err := exoContent(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{-2, 1, 2, 3, 4, -1} {
		for _, p := range cellular() {
			cfg := exoPlayer("srcap")
			if cap >= -1 {
				cfg.Replacement = replacement.PerSegment{MinBufferSec: 30, CapTrack: cap}
				cfg.MidBufferDiscard = true
			}
			res, err := expcache.Run(cfg, org, p, 600, nil)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	replacements := 0
	for i, res := range results {
		got, want := srStatsFromResult(res), srStatsOracle(res)
		if got != want {
			t.Fatalf("session %d (%s): got %+v, oracle %+v", i, res.Name, got, want)
		}
		replacements += got.replacements
	}
	if replacements == 0 {
		t.Fatal("vacuous: no replacement in any session")
	}
	t.Logf("%d sessions, %d replacements", len(results), replacements)
}
