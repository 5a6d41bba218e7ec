package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"softstate/internal/node"
	"softstate/internal/signal"
	"softstate/internal/telemetry"
	"softstate/internal/transport"
)

// wire-hs: hard state on kernel sockets. One node runs HS over the
// loopback interface (udp-batch backend: sendmmsg/recvmmsg) to hsRcvs
// receivers holding hsKeys keys each, with a telemetry registry attached
// as signald -metrics-addr does. The held keys are installed in one burst,
// as signald's fanout mode installs its keys, so the receivers probe them
// in one burst per hsProbe. An open loop then installs hsRate keys per
// second and removes each key hsLag installs later. This is the only
// workload on the transport layer and on the hard-state probe path.
const (
	hsRcvs   = 4
	hsKeys   = 4096 // held per receiver
	hsRate   = 2000 // open-loop installs per second
	hsLag    = 100  // a key is removed this many installs after its own
	hsProbe  = 3 * time.Second
	hsSetups = 11 // set-ups per run; the last one carries the open loop
	hsDrain  = 3 * time.Second
)

// hsRun is one wire-hs topology and the observations its receivers make.
type hsRun struct {
	node  *node.Node
	rcvs  []*signal.Receiver
	conns []transport.Conn // unwrapped, for transport.Stats
	addrs []net.Addr

	base                  time.Time
	cons                  *consistency
	gotInstall, gotRemove []atomic.Int64 // wall ns since base per open-loop op, 0 = not yet
	installed, removed    atomic.Int64
	lost                  atomic.Int64 // held keys removed by anything but the open loop
}

func (h *hsRun) now() int64 { return int64(time.Since(h.base)) }

func (h *hsRun) close() {
	if h.node != nil {
		h.node.Close()
	}
	for _, rc := range h.rcvs {
		rc.Close()
	}
}

// hsInputs are the seeded inputs: held keys (receiver j/hsKeys), and the
// open loop's keys with their receivers.
type hsInputs struct {
	held   []string
	heldIx map[string]int
	ops    []string
	opsIx  map[string]int
	opRcv  []int
}

func newHSInputs(seed uint64, nOps int) *hsInputs {
	in := &hsInputs{opRcv: make([]int, nOps)}
	in.held, in.heldIx = seededKeys("held/", hsRcvs*hsKeys, seed)
	in.ops, in.opsIx = seededKeys("op/", nOps, seed^0x0b5e)
	for i := range in.opRcv { // the last hex digit of the seeded name picks the receiver
		in.opRcv[i] = int(in.ops[i][len(in.ops[i])-1]) % hsRcvs
	}
	return in
}

// newHSRun allocates one topology's observation state.
func newHSRun(in *hsInputs) *hsRun {
	nOps := len(in.ops)
	h := &hsRun{
		base:       time.Now(),
		gotInstall: make([]atomic.Int64, nOps),
		gotRemove:  make([]atomic.Int64, nOps),
	}
	h.cons = newConsistency(len(in.held)+nOps, h.now)
	return h
}

// build wires the topology and installs every held key, returning once
// all of them are held.
func (h *hsRun) build(in *hsInputs, tr *tracer, r *rep) error {
	reg := telemetry.NewRegistry()
	cfg := signal.Config{
		Protocol:      signal.HS,
		Timeout:       hsProbe,
		ProbeInterval: hsProbe,
		Metrics:       reg,
		MetricsLabels: telemetry.Labels{"transport": "udp-batch"},
	}
	listen := func(lane string) (net.PacketConn, error) {
		c, err := transport.ListenUDPBatch("127.0.0.1:0", transport.Options{})
		if err != nil {
			return nil, err
		}
		c.Stats().Register(reg, telemetry.Labels{"transport": "udp-batch", "lane": lane})
		h.conns = append(h.conns, c)
		return tr.wrap(c, "transport"), nil
	}
	for i := 0; i < hsRcvs; i++ {
		conn, err := listen(fmt.Sprintf("rcv%d", i))
		if err != nil {
			h.close()
			return err
		}
		h.addrs = append(h.addrs, conn.LocalAddr())
		rcfg := cfg
		rcfg.OnEvent = h.onEvent(in, tr)
		rc, err := signal.NewReceiver(conn, rcfg)
		if err != nil {
			conn.Close()
			h.close()
			return err
		}
		h.rcvs = append(h.rcvs, rc)
	}
	conn, err := listen("node")
	if err != nil {
		h.close()
		return err
	}
	if h.node, err = node.New(conn, cfg); err != nil {
		conn.Close()
		h.close()
		return err
	}
	for j, key := range in.held {
		h.cons.intend(j, "", true)
		start := tr.now()
		err := h.node.Install(h.addrs[j/hsKeys], key, nil)
		tr.call("node.install", uint64(j+1), start)
		r.attempted++
		if err != nil {
			r.failed++
			r.problem("set-up install %s: %v", key, err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); h.held() < len(in.held); {
		if time.Now().After(deadline) {
			h.close()
			return fmt.Errorf("set-up: %d of %d keys held after 30s", h.held(), len(in.held))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (h *hsRun) held() int {
	n := 0
	for _, rc := range h.rcvs {
		n += rc.Len()
	}
	return n
}

// onEvent is a receiver's lossless event hook: it stamps open-loop
// installs and removals and feeds the consistency integral.
func (h *hsRun) onEvent(in *hsInputs, tr *tracer) func(signal.Event) {
	return func(ev signal.Event) {
		start := tr.now()
		now := h.now()
		present := ev.Kind == signal.EventInstalled || ev.Kind == signal.EventUpdated
		if j, ok := in.heldIx[ev.Key]; ok {
			h.cons.held(j, "", present)
			if !present {
				h.lost.Add(1)
			}
		} else if i, ok := in.opsIx[ev.Key]; ok {
			h.cons.held(len(in.held)+i, "", present)
			switch ev.Kind {
			case signal.EventInstalled:
				h.gotInstall[i].Store(now)
				h.installed.Add(1)
			case signal.EventRemoved:
				h.gotRemove[i].Store(now)
				h.removed.Add(1)
			default:
				if !present {
					h.lost.Add(1)
				}
			}
		}
		tr.call("signal.on_event", 0, start)
	}
}

func runWireHS(o options, tr *tracer) (*rep, error) {
	nOps := hsRate * o.seconds
	in := newHSInputs(o.seed, nOps)
	r := &rep{keys: len(in.held), sent: map[string]int64{}}

	var h *hsRun
	var heapPerKey float64
	for s := 0; s < hsSetups; s++ {
		h = newHSRun(in)
		heap0 := liveHeap()
		rt0 := readRuntime()
		t0 := time.Now()
		if err := h.build(in, tr, r); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
		r.gcSetup = gcShare(rt0, readRuntime())
		heapPerKey = float64(liveHeap()-heap0) / float64(len(in.held))
		if s < hsSetups-1 {
			h.close()
		}
	}
	defer h.close()
	r.heapPerKey = heapPerKey

	// Timed phase: the open loop. Every tick is due at start + i/hsRate;
	// tick i installs op i and removes op i-hsLag. Latency counts from the
	// due time, so a stalled generator shows in every later operation.
	sent0 := sentByType(h.node.Stats(), h.rcvs)
	rt0, c0 := readRuntime(), cpuTime()
	interval := time.Second / hsRate
	dueInstall := make([]int64, nOps)
	dueRemove := make([]int64, nOps)
	late := make([]time.Duration, 0, nOps+hsLag)
	begin := h.now() + int64(10*time.Millisecond)
	h.cons.restart()
	tr.timedPhase(true)
	for i := 0; i < nOps+hsLag; i++ {
		due := begin + int64(i)*int64(interval)
		// time.Sleep waits on the runtime's millisecond-granular poller,
		// which would wake this 500 µs schedule about half an interval
		// late on every tick; a nanosleep wakes within the kernel's timer
		// slack. An interrupted sleep (EINTR) just sleeps again.
		for d := due - h.now(); d > 0; d = due - h.now() {
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil)
		}
		late = append(late, time.Duration(h.now()-due))
		if i < nOps {
			dueInstall[i] = due
			h.cons.intend(len(in.held)+i, "", true)
			start := tr.now()
			err := h.node.Install(h.addrs[in.opRcv[i]], in.ops[i], nil)
			tr.call("node.install", uint64(len(in.held)+i+1), start)
			if err != nil {
				r.problem("install %s: %v", in.ops[i], err)
			}
		}
		if j := i - hsLag; j >= 0 {
			dueRemove[j] = due
			h.cons.intend(len(in.held)+j, "", false)
			start := tr.now()
			err := h.node.Remove(h.addrs[in.opRcv[j]], in.ops[j])
			tr.call("node.remove", uint64(len(in.held)+j+1), start)
			if err != nil {
				r.problem("remove %s: %v", in.ops[j], err)
			}
		}
	}
	for deadline := time.Now().Add(hsDrain); h.removed.Load() < int64(nOps) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	end := h.now()
	tr.timedPhase(false)
	r.incons = h.cons.ratio()
	rt1, c1 := readRuntime(), cpuTime()
	sent1 := sentByType(h.node.Stats(), h.rcvs)
	r.span = time.Duration(end - begin)
	r.timed, r.eventWall, r.cpu = r.span, r.span, c1-c0
	r.gcTimed = gcShare(rt0, rt1)
	for typ, c := range sent1 {
		if d := c - sent0[typ]; d > 0 {
			r.sent[typ] = d
			r.datagrams += d
		}
	}
	// Hard state has no refresh: a held key is kept live by one probe
	// round trip per probe interval. keys_refreshed_per_s counts the
	// per-key liveness confirmations the held population needs over the
	// timed phase (held keys × span ÷ probe interval), whatever mechanism
	// delivers them, per CPU second the process spent: it rises when the
	// program keeps the same state live for less work, including by
	// probing less.
	r.refreshRate = float64(len(in.held)) * r.span.Seconds() / hsProbe.Seconds() / r.cpu.Seconds()
	r.events = h.installed.Load() + h.removed.Load()
	r.allocsPerOp = float64(rt1.allocs-rt0.allocs) / float64(2*nOps)
	r.ticks = len(late)
	r.lateP99, r.lateMax = quantile(late, 0.99), quantile(late, 1)

	// Output checks: every open-loop install and removal observed, every
	// held key still held (hard state orphaned none), no truncation.
	r.attempted += int64(2 * nOps)
	for i := 0; i < nOps; i++ {
		gi, gr := h.gotInstall[i].Load(), h.gotRemove[i].Load()
		if gi == 0 {
			r.failed++
		} else {
			r.install = append(r.install, time.Duration(gi-dueInstall[i]))
		}
		if gr == 0 {
			r.failed++
		} else {
			r.remove = append(r.remove, time.Duration(gr-dueRemove[i]))
		}
	}
	if miss := 2*nOps - len(r.install) - len(r.remove); miss > 0 {
		r.problem("%d of %d open-loop operations never observed at a receiver", miss, 2*nOps)
	}
	missing := 0
	for j, key := range in.held {
		if _, ok := h.rcvs[j/hsKeys].Get(key); !ok {
			missing++
		}
	}
	if missing > 0 || h.lost.Load() > 0 {
		r.failed += int64(missing)
		r.problem("%d held keys missing, %d lost events (hard state orphaned live state)", missing, h.lost.Load())
	}
	var trunc int64
	for _, c := range h.conns {
		trunc += c.Stats().Truncated.Value()
	}
	r.truncated = trunc
	if trunc != 0 {
		r.problem("transport truncated %d datagrams", trunc)
	}
	return r, nil
}
