package main

import (
	"fmt"
	"net"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/node"
	"softstate/internal/rand"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
)

// fanout-refresh: one node runs SS with summary refresh to fanPeers peers
// × fanKeys keys in virtual time, with no loss and a state timeout far
// above the run, so after set-up the only work is the steady-state
// refresh path: session sweep → summary encode → lossy/clock delivery →
// wire.VisitSummaryKeys → statetable.UpdateBytes and the timing wheel.
const (
	fanPeers   = 16
	fanKeys    = 16384
	fanRefresh = 100 * time.Millisecond
	fanDelay   = time.Millisecond // one-way link delay; the install latency I integrates
	fanSweeps  = 5                // timed refresh intervals per repetition
	fanPerDgrm = 64               // keys per summary datagram (16384 = 256 full datagrams)
)

// seededKeys returns n distinct key names of equal length drawn from seed,
// and their index.
func seededKeys(prefix string, n int, seed uint64) ([]string, map[string]int) {
	rng := rand.NewSource(seed)
	keys := make([]string, n)
	index := make(map[string]int, n)
	for i := range keys {
		for {
			k := fmt.Sprintf("%s%012x", prefix, rng.Uint64()&0xffffffffffff)
			if _, dup := index[k]; !dup {
				keys[i], index[k] = k, i
				break
			}
		}
	}
	return keys, index
}

func runFanout(o options, tr *tracer) (*rep, error) {
	r := &rep{keys: fanPeers * fanKeys, span: fanSweeps * fanRefresh, sent: map[string]int64{}}
	keys, index := seededKeys("flow/", fanKeys, o.seed)
	wallBase := time.Now()
	wallNow := func() int64 { return int64(time.Since(wallBase)) }
	pairs := fanPeers * fanKeys
	callAt := make([]int64, pairs)
	gotAt := make([]int64, pairs)

	v := clock.NewVirtual()
	cons := newConsistency(pairs, func() int64 { return int64(v.Elapsed()) })

	heap0 := liveHeap()
	rt0 := readRuntime()
	t0 := time.Now()
	nw, err := lossy.NewNetwork(lossy.Config{Delay: fanDelay, Seed: o.seed ^ 0x11ce, Clock: v})
	if err != nil {
		return nil, err
	}
	cfg := signal.Config{
		Protocol:        signal.SS,
		RefreshInterval: fanRefresh,
		Timeout:         time.Hour,
		SummaryRefresh:  true,
		SummaryMaxKeys:  fanPerDgrm,
		Shards:          16,
		Clock:           v,
	}
	n, err := node.New(tr.wrap(nw.Endpoint("node"), "lossy"), cfg)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	// The receivers' registry counts renewals: a receiver observes its
	// refresh-jitter histogram once per accepted renewal of a held key.
	reg := telemetry.NewRegistry()
	rcvs := make([]*signal.Receiver, fanPeers)
	addrs := make([]net.Addr, fanPeers)
	for p := range rcvs {
		p := p
		conn := tr.wrap(nw.Endpoint(fmt.Sprintf("peer%02d", p)), "lossy")
		addrs[p] = conn.LocalAddr()
		rcfg := cfg
		rcfg.Metrics = reg
		rcfg.OnEvent = func(ev signal.Event) {
			start := tr.now()
			if ev.Kind == signal.EventInstalled {
				i := p*fanKeys + index[ev.Key]
				gotAt[i] = wallNow()
				cons.held(i, "", true)
			}
			tr.call("signal.on_event", 0, start)
		}
		if rcvs[p], err = signal.NewReceiver(conn, rcfg); err != nil {
			return nil, err
		}
		defer rcvs[p].Close()
	}

	tInstall := time.Now()
	for p := 0; p < fanPeers; p++ {
		for k, key := range keys {
			i := p*fanKeys + k
			cons.intend(i, "", true)
			start := tr.now()
			callAt[i] = wallNow()
			if err := n.Install(addrs[p], key, nil); err != nil {
				r.failed++
				r.problem("install %s at peer %d: %v", key, p, err)
			}
			tr.call("node.install", uint64(i+1), start)
		}
	}
	r.attempted += int64(pairs)
	held := func() int {
		h := 0
		for _, rc := range rcvs {
			h += rc.Len()
		}
		return h
	}
	for try := 0; held() < pairs && try < 100; try++ {
		tr.runStep(func() { v.Run(fanDelay) })
	}
	r.eventWall = time.Since(tInstall)
	r.events = int64(pairs)
	r.setups = []time.Duration{time.Since(t0)}
	rt1 := readRuntime()
	r.gcSetup = gcShare(rt0, rt1)
	r.heapPerKey = float64(liveHeap()-heap0) / float64(pairs)
	if h := held(); h != pairs {
		r.problem("set-up: %d of %d (peer, key) pairs held", h, pairs)
	}
	for i := range callAt {
		if gotAt[i] > 0 {
			r.install = append(r.install, time.Duration(gotAt[i]-callAt[i]))
		}
	}

	// Timed phase: fanSweeps refresh intervals.
	sent0 := sentByType(n.Stats(), rcvs)
	renewed0 := renewals(reg)
	parks0 := v.Parks()
	rt2 := readRuntime()
	tr.timedPhase(true)
	t1, c1 := time.Now(), cpuTime()
	for s := 0; s < fanSweeps; s++ {
		tr.runStep(func() { v.Run(fanRefresh) })
	}
	r.timed, r.cpu = time.Since(t1), cpuTime()-c1
	tr.timedPhase(false)
	rt3 := readRuntime()
	r.parks = v.Parks() - parks0
	r.gcTimed = gcShare(rt2, rt3)
	r.incons = cons.ratio()

	sent1 := sentByType(n.Stats(), rcvs)
	for typ, c := range sent1 {
		if d := c - sent0[typ]; d > 0 {
			r.sent[typ] = d
			r.datagrams += d
		}
	}
	r.refreshed = renewals(reg) - renewed0
	r.refreshRate = float64(r.refreshed) / r.timed.Seconds()
	r.allocsPerOp = float64(rt3.allocs-rt2.allocs) / float64(r.refreshed)

	// Output checks: every pair still held, and every key renewed exactly
	// once per sweep: the renewals counted at the receivers equal sweeps ×
	// held keys.
	want := int64(fanSweeps) * int64(pairs)
	r.attempted += want
	if h := held(); h != pairs {
		r.failed += int64(pairs - h)
		r.problem("end: %d of %d (peer, key) pairs held", h, pairs)
	}
	if r.refreshed != want {
		if r.refreshed < want {
			r.failed += want - r.refreshed
		}
		r.problem("renewals %d, want sweeps × held = %d", r.refreshed, want)
	}
	if nacks := r.sent["summary-nack"]; nacks != 0 {
		r.problem("%d summary NACKs on a lossless fan-out", nacks)
	}
	return r, nil
}

// sentByType sums datagrams sent per wire type across a node and its
// receivers.
func sentByType(ns signal.Stats, rcvs []*signal.Receiver) map[string]int64 {
	out := map[string]int64{}
	add := func(st signal.Stats) {
		for typ, c := range st.Sent {
			out[typ] += int64(c)
		}
	}
	add(ns)
	for _, rc := range rcvs {
		add(rc.Stats())
	}
	return out
}

// renewals sums the accepted renewals of held keys the receivers on reg
// have counted.
func renewals(reg *telemetry.Registry) int64 {
	var n int64
	for _, s := range reg.Gather() {
		if s.Name == "softstate_refresh_jitter_seconds" {
			n += s.Hist.Count
		}
	}
	return n
}
