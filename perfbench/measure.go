package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// checks counts output checks. Every repetition adds its checks, so the
// share that failed is failed/total over the whole run.
type checks struct {
	total, failed int
	failures      []string // the first few failure messages
}

// expect records one check; a failure is described on standard error.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.total++
	if ok {
		return
	}
	c.failed++
	msg := fmt.Sprintf(format, args...)
	if len(c.failures) < 32 {
		c.failures = append(c.failures, msg)
	}
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
}

// sample is what one repetition of a workload measured.
type sample struct {
	sessions   int64
	wall       time.Duration
	cpu        time.Duration // user + sys of the whole process, GC included
	allocBytes uint64
	peakHeap   uint64
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricHeapAllocs  = "/gc/heap/allocs:bytes"
)

// readMetric reads one runtime/metrics counter.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the highest heap in use (live and not yet swept
// objects) while it runs. runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	s := []metrics.Sample{{Name: metricHeapObjects}}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
	}
}

// Stop ends sampling, waits for the sampler to exit and returns the peak.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// measure runs fn once and records its wall time, process CPU time,
// heap allocation and peak heap. fn returns the sessions it delivered
// and a verification step that runs after the clock stops.
//
// Each repetition starts from a collected heap, so its peak and its GC
// work do not depend on where the previous repetition left the GC cycle.
func measure(fn func() (int64, func(), error)) (sample, error) {
	runtime.GC()
	hs := startHeapSampler()
	allocs0 := readMetric(metricHeapAllocs)
	cpu0 := cpuTime()
	t0 := time.Now()
	n, verify, err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	allocs := readMetric(metricHeapAllocs) - allocs0
	peak := hs.Stop()
	if err != nil {
		return sample{}, err
	}
	if verify != nil {
		verify()
	}
	return sample{sessions: n, wall: wall, cpu: cpu, allocBytes: allocs, peakHeap: peak}, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// heapReps is how many leading repetitions peak_heap_mib is taken over.
// paper_report retains a few MiB per regeneration across cache resets,
// so a peak over all repetitions would grow with how many fit in the
// run — that is, with speed.
const heapReps = 10

// endToEnd reduces the repetitions and set-up samples to the
// end-to-end metrics: the median over repetitions of each per-repetition
// value (over the first heapReps repetitions for the peak heap).
func endToEnd(reps []sample, setups []time.Duration) map[string]metric {
	var tput, cpu, heap, alloc, setup []float64
	for i, r := range reps {
		n := float64(r.sessions)
		tput = append(tput, n/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/1e3/n)
		if i < heapReps {
			heap = append(heap, float64(r.peakHeap)/(1<<20))
		}
		alloc = append(alloc, float64(r.allocBytes)/n)
	}
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	return map[string]metric{
		"sessions_per_s":          {median(tput), "sessions/s"},
		"cpu_us_per_session":      {median(cpu), "us"},
		"setup_s":                 {median(setup), "s"},
		"peak_heap_mib":           {median(heap), "MiB"},
		"alloc_bytes_per_session": {median(alloc), "B"},
	}
}
