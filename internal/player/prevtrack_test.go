package player

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/replacement"
	"repro/internal/simnet"
)

// scanPrevDownloadedTrack is the linear scan over the download log that
// the per-index firstForward lookup replaced, kept as its oracle: the
// track of the completed forward video download with the highest index
// below the given one (the first in the log among equals), or -1.
func scanPrevDownloadedTrack(downloads []Download, index int) int {
	best, bestIdx := -1, -1
	for _, d := range downloads {
		if d.Type != media.TypeVideo || d.Replacement || d.End == 0 {
			continue
		}
		if d.Index < index && d.Index > bestIdx {
			bestIdx, best = d.Index, d.Track
		}
	}
	return best
}

// checkPrevTrackAll compares the lookup with the scan for every index
// the session could ask about.
func checkPrevTrackAll(s *Session) error {
	for i := 0; i <= s.segCount; i++ {
		if got, want := s.prevDownloadedTrack(i), scanPrevDownloadedTrack(s.res.Downloads, i); got != want {
			return fmt.Errorf("index %d: lookup %d, scan %d (%d downloads)", i, got, want, len(s.res.Downloads))
		}
	}
	return nil
}

// replayPrevTrack restores a download log with nothing completed, then
// completes the downloads listed in order (positions in the log), each
// with its End from the log, checking the lookup against the scan at
// every index before the first completion and after each one.
func replayPrevTrack(log []Download, order []int, segCount int) error {
	r := &Session{segCount: segCount, res: &Result{Downloads: slices.Clone(log)}, firstForward: make([]int32, segCount)}
	for i := range r.res.Downloads {
		r.res.Downloads[i].End = 0
	}
	for i := range r.firstForward {
		r.firstForward[i] = -1
	}
	if err := checkPrevTrackAll(r); err != nil {
		return fmt.Errorf("before any completion: %v", err)
	}
	for _, i := range order {
		r.res.Downloads[i].End = log[i].End
		r.noteForward(i)
		if err := checkPrevTrackAll(r); err != nil {
			return fmt.Errorf("after completing download %d: %v", i, err)
		}
	}
	return nil
}

// TestPrevDownloadedTrackMatchesScanRandom replays seeded random logs
// that no session produces — replacements ahead of any forward download
// of their index, audio mixed in, many copies per index — completed in
// random order.
func TestPrevDownloadedTrackMatchesScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 300; iter++ {
		segCount := 1 + rng.Intn(12)
		log := make([]Download, rng.Intn(30))
		for i := range log {
			log[i] = Download{
				Type:  media.TypeVideo,
				Index: rng.Intn(segCount), Track: rng.Intn(4),
				Replacement: rng.Intn(3) == 0,
				End:         1 + float64(rng.Intn(20)),
			}
			if rng.Intn(5) == 0 {
				log[i].Type = media.TypeAudio
			}
		}
		order := rng.Perm(len(log))[:rng.Intn(len(log)+1)]
		if err := replayPrevTrack(log, order, segCount); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
	}
}

// TestPrevDownloadedTrackMatchesScan runs sessions with segment
// replacement (H4's contiguous up-switch SR and the improved per-segment
// SR) and with seeks, and checks the lookup against the scan twice:
// live, at every segment request of the running session, and by
// replaying each finished log's completions in completion order,
// checking every index after each one — every state the lookup is
// called in.
func TestPrevDownloadedTrackMatchesScan(t *testing.T) {
	org := buildOrigin(t, 4, true, media.VBR)
	variants := []struct {
		name string
		edit func(*Config)
	}{
		{"h4-sr", func(c *Config) {
			c.Replacement = replacement.ContiguousOnUpswitch{IgnoreBufferedQuality: true}
		}},
		{"improved-sr", func(c *Config) {
			c.Replacement = replacement.PerSegment{MinBufferSec: 30, CapTrack: -1}
			c.MidBufferDiscard = true
		}},
		{"seeks", func(c *Config) {
			c.Seeks = []SeekEvent{{AtSec: 60, ToSec: 300}, {AtSec: 150, ToSec: 40}, {AtSec: 260, ToSec: 500}}
		}},
		{"sr-seeks", func(c *Config) {
			c.Replacement = replacement.PerSegment{MinBufferSec: 30, CapTrack: -1}
			c.MidBufferDiscard = true
			c.Seeks = []SeekEvent{{AtSec: 90, ToSec: 420}, {AtSec: 200, ToSec: 100}}
		}},
	}
	// replacements counts SR re-downloads (which the lookup ignores),
	// repeats forward downloads of an index already fetched forward
	// (H4's tail drops and seeks), where the first in the log must win.
	var replacements, repeats, lookups int
	for _, v := range variants {
		for _, trace := range []int{1, 3, 5} {
			cfg := baseConfig()
			cfg.SessionDuration = 400
			cfg.PauseThresholdSec, cfg.ResumeThresholdSec = 150, 130
			v.edit(&cfg)
			var s *Session
			var liveErr error
			cfg.RequestGate = func(Request) bool {
				if liveErr == nil && s.res != nil {
					liveErr = checkPrevTrackAll(s)
					lookups++
				}
				return true
			}
			var err error
			s, err = NewSession(cfg, org, simnet.New(simnet.DefaultConfig(), netem.Cellular(trace)))
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if liveErr != nil {
				t.Fatalf("%s/trace %d live: %v", v.name, trace, liveErr)
			}

			// Replay the log's completions in completion order.
			order := make([]int, 0, len(res.Downloads))
			forward := map[int]bool{}
			for i, d := range res.Downloads {
				if d.Replacement {
					replacements++
				} else if d.Type == media.TypeVideo {
					if forward[d.Index] {
						repeats++
					}
					forward[d.Index] = true
				}
				if d.End != 0 {
					order = append(order, i)
				}
			}
			slices.SortStableFunc(order, func(a, b int) int {
				return cmp.Compare(res.Downloads[a].End, res.Downloads[b].End)
			})
			if err := replayPrevTrack(res.Downloads, order, s.segCount); err != nil {
				t.Fatalf("%s/trace %d replay: %v", v.name, trace, err)
			}
		}
	}
	if replacements == 0 || repeats == 0 || lookups == 0 {
		t.Fatalf("vacuous: %d replacement downloads, %d repeated forward downloads, %d live checks", replacements, repeats, lookups)
	}
	t.Logf("%d replacement downloads, %d repeated forward downloads, %d live checks", replacements, repeats, lookups)
}
