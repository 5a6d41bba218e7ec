package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rep is what one repetition of a workload measured. Wall-clock fields
// vary run to run; the outcome fields (datagrams, inconsistency, sent) of
// a virtual-time workload are a pure function of the seed.
type rep struct {
	setups     []time.Duration // each set-up performed: build + initial install until all held
	heapPerKey float64         // live heap added by the set-up, per key, after a forced GC

	refreshed   int64         // key renewals receivers applied in the timed phase
	refreshRate float64       // keys_refreshed_per_s as the workload defines it
	timed       time.Duration // wall length of the timed phase
	cpu         time.Duration // process CPU time (user + system) in the timed phase
	events      int64         // installs + removals driven
	eventWall   time.Duration // wall span over which those events were driven

	datagrams int64            // sent by every endpoint in the timed phase
	sent      map[string]int64 // the same, by wire type
	keys      int              // key population the datagram rate is normalised by
	span      time.Duration    // timed-phase length in the workload's own clock
	incons    float64          // the paper's I

	install, remove []time.Duration // due time → sampling point's OnEvent, wall clock

	attempted, failed int64
	problems          []string

	// Open-loop generator lateness (wire-hs only).
	lateP99, lateMax time.Duration
	ticks            int

	// Go runtime, per phase.
	gcSetup, gcTimed float64 // GC CPU share
	allocsPerOp      float64 // heap objects allocated per timed operation
	parks            int64   // virtual-clock gate parks in the timed phase

	truncated int64 // oversized datagrams the kernel-socket transport dropped
}

func (r *rep) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// outcome renders the fields that must repeat exactly at one seed.
func (r *rep) outcome() string {
	return fmt.Sprintf("datagrams=%d datagrams_per_key_s=%.9g inconsistency=%.9g",
		r.datagrams, r.datagramRate(), r.incons)
}

func (r *rep) datagramRate() float64 {
	return float64(r.datagrams) / float64(r.keys) / r.span.Seconds()
}

// sameOutcome reports whether two repetitions at one seed agree exactly
// on every virtual-time outcome.
func sameOutcome(a, b *rep) bool {
	if a.datagrams != b.datagrams || a.incons != b.incons || a.refreshed != b.refreshed || a.events != b.events {
		return false
	}
	if len(a.sent) != len(b.sent) {
		return false
	}
	for k, v := range a.sent {
		if b.sent[k] != v {
			return false
		}
	}
	return true
}

// endToEnd reduces repetitions to the end-to-end metrics: medians of the
// per-repetition figures, and the latency median over every sample.
func endToEnd(reps []*rep) map[string]metric {
	var setups, refresh, events, heap, dgram []float64
	var install []time.Duration
	for _, r := range reps {
		for _, s := range r.setups {
			setups = append(setups, s.Seconds())
		}
		refresh = append(refresh, r.refreshRate)
		events = append(events, float64(r.events)/r.eventWall.Seconds())
		heap = append(heap, r.heapPerKey)
		dgram = append(dgram, r.datagramRate())
		install = append(install, r.install...)
	}
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"keys_refreshed_per_s": {median(refresh), "1/s"},
		"key_events_per_s":     {median(events), "1/s"},
		"heap_bytes_per_key":   {median(heap), "B/key"},
		"datagrams_per_key_s":  {median(dgram), "dgram/key/s"},
		"install_p50_us":       {us(quantile(install, 0.50)), "us"},
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of d (0 when empty).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// runtimeSample is a snapshot of the Go runtime's cumulative CPU and
// allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}

// gcShare is the GC's share of the CPU time the process spent between a
// and b. The runtime refreshes its CPU classes at GC boundaries, so the
// share is exact for phases that contain collections and 0 otherwise.
func gcShare(a, b runtimeSample) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// sourceDigest hashes the Go sources and go.mod files under the working
// directory, which is the root of the checkout the benchmark was built
// from.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// consistency integrates the paper's inconsistency I exactly: for every
// (sampling point, key) pair it tracks the origin's intent and the point's
// held state and accumulates the time they disagree. I is the disagreeing
// share of the total pair-time, each pair observed from its first install
// (or the window's restart, if later) to the end of the measurement.
// Times are whatever clock now reads — virtual nanoseconds on simulated
// workloads, wall nanoseconds otherwise.
type consistency struct {
	mu    sync.Mutex
	now   func() int64
	pairs []pairState
	bad   float64
}

type pairState struct {
	want, have     string
	wantOK, haveOK bool
	start          int64 // first intent; -1 while untracked
	badSince       int64 // -1 while consistent
}

func newConsistency(n int, now func() int64) *consistency {
	c := &consistency{now: now, pairs: make([]pairState, n)}
	for i := range c.pairs {
		c.pairs[i].start, c.pairs[i].badSince = -1, -1
	}
	return c
}

// intend records the origin's intent for pair i: value val when ok,
// absent otherwise.
func (c *consistency) intend(i int, val string, ok bool) {
	c.mu.Lock()
	t := c.now()
	p := &c.pairs[i]
	if p.start < 0 {
		p.start = t
	}
	p.want, p.wantOK = val, ok
	c.flip(p, t)
	c.mu.Unlock()
}

// held records pair i's state at its sampling point.
func (c *consistency) held(i int, val string, ok bool) {
	c.mu.Lock()
	t := c.now()
	p := &c.pairs[i]
	p.have, p.haveOK = val, ok
	if p.start >= 0 {
		c.flip(p, t)
	}
	c.mu.Unlock()
}

func (c *consistency) flip(p *pairState, t int64) {
	good := p.wantOK == p.haveOK && (!p.wantOK || p.want == p.have)
	switch {
	case !good && p.badSince < 0:
		p.badSince = t
	case good && p.badSince >= 0:
		c.bad += float64(t - p.badSince)
		p.badSince = -1
	}
}

// restart opens the measurement window now: disagreement so far is
// forgotten and every tracked pair is observed from now on.
func (c *consistency) restart() {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now()
	c.bad = 0
	for i := range c.pairs {
		p := &c.pairs[i]
		if p.start >= 0 {
			p.start = t
		}
		if p.badSince >= 0 {
			p.badSince = t
		}
	}
}

// ratio closes every open interval at the current time and returns I.
func (c *consistency) ratio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now()
	bad, total := c.bad, 0.0
	for i := range c.pairs {
		p := &c.pairs[i]
		if p.start < 0 {
			continue
		}
		total += float64(t - p.start)
		if p.badSince >= 0 {
			bad += float64(t - p.badSince)
		}
	}
	if total == 0 {
		return 0
	}
	return bad / total
}
