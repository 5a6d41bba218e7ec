package main

import (
	"fmt"
	"sync"
	"time"

	"softstate/internal/clock"
	"softstate/internal/lossy"
	"softstate/internal/node"
	"softstate/internal/rand"
	"softstate/internal/signal"
)

// chain-churn: SS+RTR over a relay chain of chainNodes nodes in virtual
// time, every link lossy and delayed, per-key refresh (no summaries),
// with every key churned through exponential lifetimes and gaps. Per-key
// work dominates: triggers, acks, retransmissions, removals, relay
// re-signaling and table insert/delete churn. I is measured at the tail.
const (
	chainNodes    = 6 // origin, 4 relays, tail: 5 hops
	chainKeys     = 1024
	chainLoss     = 0.05
	chainDelay    = 2 * time.Millisecond
	chainRefresh  = 100 * time.Millisecond
	chainLifetime = 3 * time.Second
	chainGap      = time.Second
	chainChurn    = 30 * time.Second // timed virtual span
	chainQuiesce  = 5 * time.Second  // churn-free window before the output checks
)

// chainSetups is how many set-ups one repetition measures: the chain
// builds in tens of milliseconds, so a single sample per repetition would
// leave setup_s to one scheduler hiccup. All but the last are torn down
// right after set-up; the last one runs the churn.
const chainSetups = 5

func runChain(o options, tr *tracer) (*rep, error) {
	var pre []*rep
	for i := 1; i < chainSetups; i++ {
		r, err := chainRep(o, nil, true)
		if err != nil {
			return nil, err
		}
		pre = append(pre, r)
	}
	r, err := chainRep(o, tr, false)
	if err != nil {
		return nil, err
	}
	for _, p := range pre {
		r.setups = append(r.setups, p.setups...)
		r.attempted += p.attempted
		r.failed += p.failed
		r.problems = append(r.problems, p.problems...)
	}
	return r, nil
}

// chainRep builds the chain and installs every key; unless setupOnly, it
// then churns the keys for chainChurn and checks the outcome.
func chainRep(o options, tr *tracer, setupOnly bool) (*rep, error) {
	r := &rep{keys: chainKeys, span: chainChurn, sent: map[string]int64{}}
	keys, index := seededKeys("flow/", chainKeys, o.seed)
	rng := rand.NewSource(o.seed ^ 0xc4a1)
	wallBase := time.Now()
	wallNow := func() int64 { return int64(time.Since(wallBase)) }

	v := clock.NewVirtual()
	cons := newConsistency(chainKeys, func() int64 { return int64(v.Elapsed()) })

	heap0 := liveHeap()
	rt0 := readRuntime()
	t0 := time.Now()
	nw, err := lossy.NewNetwork(lossy.Config{Loss: chainLoss, Delay: chainDelay, Seed: o.seed ^ 0x11ce, Clock: v})
	if err != nil {
		return nil, err
	}
	cfg := signal.Config{
		Protocol:        signal.SSRTR,
		RefreshInterval: chainRefresh,
		Timeout:         3 * chainRefresh,
		Retransmit:      25 * time.Millisecond,
		Shards:          4,
		Clock:           v,
	}

	// The tail's view, intent and pending operations, shared between the
	// churn callbacks (run by Virtual.Run) and the tail's OnEvent hook.
	var (
		mu        sync.Mutex
		intent    = make([]string, chainKeys) // "" = removed
		pendingAt = make([]int64, chainKeys)  // due wall time of the unconfirmed op, 0 when none
		install   []time.Duration
		remove    []time.Duration
	)
	onTail := func(ev signal.Event) {
		start := tr.now()
		k, ok := index[ev.Key]
		if !ok {
			return
		}
		mu.Lock()
		switch ev.Kind {
		case signal.EventInstalled, signal.EventUpdated:
			val := string(ev.Value)
			cons.held(k, val, true)
			if pendingAt[k] > 0 && intent[k] == val {
				install = append(install, time.Duration(wallNow()-pendingAt[k]))
				pendingAt[k] = 0
			}
		case signal.EventRemoved, signal.EventExpired, signal.EventFalseRemoval, signal.EventOrphaned:
			cons.held(k, "", false)
			if pendingAt[k] > 0 && intent[k] == "" {
				remove = append(remove, time.Duration(wallNow()-pendingAt[k]))
				pendingAt[k] = 0
			}
		}
		mu.Unlock()
		tr.call("signal.on_event", uint64(k+1), start)
	}

	// Wire origin → relays → tail over one switch.
	origin, err := node.New(tr.wrap(nw.Endpoint("n0"), "lossy"), cfg)
	if err != nil {
		return nil, err
	}
	defer origin.Close()
	var relays []*node.Relay
	first := nw.Endpoint("n1.up")
	up := first
	for i := 1; i < chainNodes-1; i++ {
		next := nw.Endpoint(fmt.Sprintf("n%d.up", i+1))
		if i == chainNodes-2 {
			next = nw.Endpoint("tail")
		}
		rl, err := node.NewRelay(tr.wrap(up, "lossy"), tr.wrap(nw.Endpoint(fmt.Sprintf("n%d.down", i)), "lossy"), next.LocalAddr(), cfg)
		if err != nil {
			return nil, err
		}
		defer rl.Close()
		relays = append(relays, rl)
		up = next
	}
	tcfg := cfg
	tcfg.OnEvent = onTail
	tail, err := signal.NewReceiver(tr.wrap(up, "lossy"), tcfg)
	if err != nil {
		return nil, err
	}
	defer tail.Close()
	hop := first.LocalAddr()

	version := make([]int, chainKeys)
	// issue drives one install or removal of key k at the origin.
	issue := func(k int, inst bool) bool {
		start := tr.now()
		val := ""
		if inst {
			val = fmt.Sprintf("v%d.%d", k, version[k])
			version[k]++
		}
		mu.Lock()
		pendingAt[k] = wallNow()
		mu.Unlock()
		var err error
		if inst {
			err = origin.Install(hop, keys[k], []byte(val))
			tr.call("node.install", uint64(k+1), start)
		} else {
			err = origin.Remove(hop, keys[k])
			tr.call("node.remove", uint64(k+1), start)
		}
		r.attempted++
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			pendingAt[k] = 0
			r.failed++
			r.problem("key %s (install %v): %v", keys[k], inst, err)
			return false
		}
		intent[k] = val
		cons.intend(k, val, inst)
		return true
	}

	// Set-up: install every key and run until the tail holds all of them.
	for k := range keys {
		issue(k, true)
	}
	for spent := time.Duration(0); tail.Len() < chainKeys && spent < chainChurn; spent += 10 * time.Millisecond {
		tr.runStep(func() { v.Run(10 * time.Millisecond) })
	}
	r.setups = []time.Duration{time.Since(t0)}
	rt1 := readRuntime()
	r.gcSetup = gcShare(rt0, rt1)
	r.heapPerKey = float64(liveHeap()-heap0) / chainKeys
	if tail.Len() != chainKeys {
		r.problem("set-up: tail holds %d of %d keys", tail.Len(), chainKeys)
	}
	if setupOnly {
		return r, nil
	}
	mu.Lock()
	install = install[:0] // set-up installs are not churn events
	mu.Unlock()

	// Timed phase: churn every key for chainChurn of virtual time.
	stopped := false
	var churn func(k int)
	churn = func(k int) {
		v.AfterFunc(time.Duration(rng.Exp(chainLifetime.Seconds())*float64(time.Second)), func() {
			if stopped || !issue(k, false) {
				return
			}
			r.events++
			v.AfterFunc(time.Duration(rng.Exp(chainGap.Seconds())*float64(time.Second)), func() {
				if stopped || !issue(k, true) {
					return
				}
				r.events++
				churn(k)
			})
		})
	}
	for k := range keys {
		churn(k)
	}
	endpoints := func() map[string]int64 {
		out := sentByType(origin.Stats(), []*signal.Receiver{tail})
		for _, rl := range relays {
			for typ, c := range rl.Receiver().Stats().Sent {
				out[typ] += int64(c)
			}
			for typ, c := range rl.Downstream().Stats().Sent {
				out[typ] += int64(c)
			}
		}
		return out
	}
	refreshes := func() int64 {
		n := int64(tail.Stats().Received["refresh"])
		for _, rl := range relays {
			n += int64(rl.Receiver().Stats().Received["refresh"])
		}
		return n
	}
	sent0, ref0 := endpoints(), refreshes()
	parks0 := v.Parks()
	rt2 := readRuntime()
	cons.restart()
	tr.timedPhase(true)
	t1, c1 := time.Now(), cpuTime()
	for spent := time.Duration(0); spent < chainChurn; spent += chainRefresh / 2 {
		tr.runStep(func() { v.Run(chainRefresh / 2) })
	}
	r.timed, r.cpu = time.Since(t1), cpuTime()-c1
	tr.timedPhase(false)
	r.eventWall = r.timed
	rt3 := readRuntime()
	r.gcTimed = gcShare(rt2, rt3)
	r.parks = v.Parks() - parks0
	r.incons = cons.ratio()
	for typ, c := range endpoints() {
		if d := c - sent0[typ]; d > 0 {
			r.sent[typ] = d
			r.datagrams += d
		}
	}
	r.refreshed = refreshes() - ref0
	r.refreshRate = float64(r.refreshed) / r.timed.Seconds()
	r.allocsPerOp = float64(rt3.allocs-rt2.allocs) / float64(r.events)
	mu.Lock()
	r.install, r.remove = install, remove
	mu.Unlock()

	// Output checks over a churn-free quiesce window. Under loss, soft
	// state is only eventually consistent: a streak of lost refreshes can
	// expire a live key at any hop at any instant, and the next refresh
	// repairs it. So the check latches: it passes once any sample in the
	// window (one per refresh interval) finds the tail matching the
	// origin's intent on every key. Every endpoint's invariants must hold
	// at the end.
	stopped = true
	mismatched := chainKeys
	for spent := time.Duration(0); spent < chainQuiesce && mismatched > 0; spent += chainRefresh {
		v.Run(chainRefresh)
		mismatched = 0
		for k, key := range keys {
			got, ok := tail.Get(key)
			if ok != (intent[k] != "") || (ok && string(got) != intent[k]) {
				mismatched++
			}
		}
	}
	if mismatched > 0 {
		r.failed += int64(mismatched)
		r.problem("quiesce: the tail never matched the origin within %v (%d of %d keys differ at the end)",
			chainQuiesce, mismatched, chainKeys)
	}
	audits := map[string][]string{"origin": origin.CheckInvariants(), "tail": tail.CheckInvariants()}
	for i, rl := range relays {
		audits[fmt.Sprintf("relay%d", i+1)] = rl.CheckInvariants()
	}
	for who, bad := range audits {
		for _, b := range bad {
			r.problem("%s invariant: %s", who, b)
		}
	}
	return r, nil
}
