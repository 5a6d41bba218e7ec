package main

import (
	"fmt"
	"time"

	"softstate/internal/clock"
	"softstate/internal/statetable"
	"softstate/internal/wire"
)

// layerTargets names, for every per-layer metric, the end-to-end metric
// and workload it is expected to move. It is printed next to the figures
// and written into the trace file, so later changes can cite it.
var layerTargets = map[string]string{
	"wire.encode_ns_per_dgram":        "key_events_per_s on chain-churn",
	"wire.decode_ns_per_dgram":        "key_events_per_s on chain-churn",
	"wire.summary_visit_ns_per_key":   "keys_refreshed_per_s on fanout-refresh",
	"wire.bytes_per_dgram":            "install_p50_us on wire-hs",
	"statetable.renew_ns_per_key":     "keys_refreshed_per_s on fanout-refresh",
	"statetable.upsert_ns":            "key_events_per_s on chain-churn; setup_s on fanout-refresh",
	"statetable.delete_ns":            "key_events_per_s on chain-churn; setup_s on fanout-refresh",
	"lossy.write_ns_per_dgram":        "keys_refreshed_per_s on fanout-refresh, key_events_per_s on chain-churn; none on wire-hs",
	"lossy.read_wait_frac":            "keys_refreshed_per_s on fanout-refresh, key_events_per_s on chain-churn; none on wire-hs",
	"clock.parks_per_virtual_s":       "keys_refreshed_per_s on fanout-refresh, key_events_per_s on chain-churn; none on wire-hs",
	"transport.write_dgrams_per_call": "install_p50_us and signal.install_p99_us on wire-hs; none on virtual workloads",
	"transport.read_dgrams_per_call":  "install_p50_us and signal.install_p99_us on wire-hs; none on virtual workloads",
	"transport.write_ns_per_call":     "install_p50_us and signal.install_p99_us on wire-hs; none on virtual workloads",
	"transport.read_wait_frac":        "install_p50_us and signal.install_p99_us on wire-hs; none on virtual workloads",
	"transport.truncated":             "install_p50_us and signal.install_p99_us on wire-hs; none on virtual workloads",
	"node.install_call_ns":            "install_p50_us on wire-hs; key_events_per_s on chain-churn",
	"node.remove_call_ns":             "signal.remove_p50_us on wire-hs; key_events_per_s on chain-churn",
	"signal.inconsistency":            "the paper's I: exact and seed-determined on chain-churn and fanout-refresh; scheduler-bound on wire-hs",
	"signal.remove_p50_us":            "removal propagation on wire-hs and chain-churn (signal.inconsistency)",
	"signal.install_p99_us":           "install tail on wire-hs: open-loop operations queued behind hard-state probe bursts (unbounded)",
	"signal.retransmits_per_trigger":  "datagrams_per_key_s on every workload; signal.inconsistency on chain-churn",
	"signal.summary_keys_per_dgram":   "datagrams_per_key_s on every workload; signal.inconsistency on chain-churn",
	"runtime.gc_cpu_frac.setup":       "setup_s, heap_bytes_per_key on fanout-refresh",
	"runtime.gc_cpu_frac.timed":       "keys_refreshed_per_s on fanout-refresh; key_events_per_s on chain-churn",
	"runtime.allocs_per_op":           "setup_s, heap_bytes_per_key on fanout-refresh; key_events_per_s on chain-churn",
	"trace.overhead_frac":             "none: traced over untraced CPU time of the timed phase, minus 1",
}

// wireTypes are the wire types signal.sent.<type> reports, one metric each.
var wireTypes = func() []string {
	var out []string
	for t := wire.TypeTrigger; int(t) < wire.NumTypes; t++ {
		out = append(out, t.String())
	}
	return out
}()

func init() {
	for _, t := range wireTypes {
		layerTargets["signal.sent."+t] = "datagrams_per_key_s on every workload; signal.inconsistency on chain-churn"
	}
}

// traced runs one untraced and one traced repetition at the same seed,
// checks that tracing changed no virtual-time outcome, and reports the
// per-layer metrics.
func traced(w workload, o options, e env) (result, error) {
	plain, err := w.run(o, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	tw, err := w.run(o, tr)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: plain.attempted + tw.attempted, Failed: plain.failed + tw.failed}
	for _, p := range plain.problems {
		res.note(false, "untraced: %s", p)
	}
	for _, p := range tw.problems {
		res.note(false, "traced: %s", p)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if w.virtual && !sameOutcome(plain, tw) {
		res.note(false, "tracing changed the virtual-time outcome: traced %s, untraced %s", tw.outcome(), plain.outcome())
	} else {
		res.note(true, "untraced %s; traced %s", plain.outcome(), tw.outcome())
	}

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perCall := func(b boundary) float64 {
		if b.Calls == 0 {
			return 0
		}
		return float64(b.BusyNs) / float64(b.Calls)
	}
	waitFrac := func(b boundary) float64 {
		if b.WaitNs+b.BusyNs == 0 {
			return 0
		}
		return float64(b.WaitNs) / float64(b.WaitNs+b.BusyNs)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	enc, dec, visit := replayWire(tr)
	set("wire.encode_ns_per_dgram", "ns", enc)
	set("wire.decode_ns_per_dgram", "ns", dec)
	set("wire.summary_visit_ns_per_key", "ns", visit)
	var written int64
	for _, n := range tr.written {
		written += n
	}
	set("wire.bytes_per_dgram", "B", float64(tr.bytes)/float64(max(written, 1)))
	up, renew, del := replayTable(tr)
	set("statetable.upsert_ns", "ns", up)
	set("statetable.renew_ns_per_key", "ns", renew)
	set("statetable.delete_ns", "ns", del)

	lw, lr := tr.totals("lossy.write"), tr.totals("lossy.read")
	set("lossy.write_ns_per_dgram", "ns", perCall(lw))
	set("lossy.read_wait_frac", "ratio", waitFrac(lr))
	parks := 0.0
	if w.virtual {
		parks = float64(tw.parks) / tw.span.Seconds()
	}
	set("clock.parks_per_virtual_s", "1/s", parks)

	// The virtual workloads reach the transport layer through its plain
	// adapter (one datagram per call) over the lossy conns.
	tw2, tr2 := tr.totals("transport.write"), tr.totals("transport.read")
	if w.virtual {
		tw2, tr2 = lw, lr
	}
	set("transport.write_dgrams_per_call", "dgram", ratio(tw2.Items, tw2.Calls))
	set("transport.read_dgrams_per_call", "dgram", ratio(tr2.Items, tr2.Calls))
	set("transport.write_ns_per_call", "ns", perCall(tw2))
	set("transport.read_wait_frac", "ratio", waitFrac(tr2))
	set("transport.truncated", "count", float64(tw.truncated))

	set("node.install_call_ns", "ns", perCall(tr.totals("node.install")))
	set("node.remove_call_ns", "ns", perCall(tr.totals("node.remove")))

	// Message mix, per key per second of the timed phase.
	for _, t := range wireTypes {
		set("signal.sent."+t, "dgram/key/s", float64(tw.sent[t])/float64(tw.keys)/tw.span.Seconds())
	}
	set("signal.retransmits_per_trigger", "ratio", ratio(tr.repeats, tr.firsts))
	set("signal.summary_keys_per_dgram", "key/dgram", summaryKeysPerDgram(tr.caps[wire.TypeSummaryRefresh]))
	// Latency and runtime figures come from the untraced repetition: the
	// wrappers would inflate them.
	set("signal.inconsistency", "ratio", plain.incons)
	set("signal.remove_p50_us", "us", us(quantile(plain.remove, 0.5)))
	set("signal.install_p99_us", "us", us(quantile(plain.install, 0.99)))
	set("runtime.gc_cpu_frac.setup", "ratio", plain.gcSetup)
	set("runtime.gc_cpu_frac.timed", "ratio", plain.gcTimed)
	set("runtime.allocs_per_op", "count", plain.allocsPerOp)
	set("trace.overhead_frac", "ratio", tw.cpu.Seconds()/plain.cpu.Seconds()-1)
	res.Metrics = m

	tr.mu.Lock()
	tf := traceFile{Env: e, Boundaries: tr.bounds, Spans: tr.spans, Dropped: tr.dropped, Metrics: m, Targets: layerTargets}
	err = writeJSON(o.out, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed), tf)
	tr.mu.Unlock()
	if err != nil {
		return result{}, err
	}
	res.note(true, "trace written to %s/trace-%s-%d.json (%d spans kept, %d not kept)", o.out, w.name, o.seed, len(tf.Spans), tf.Dropped)
	return res, nil
}

// replayBudget is how long each replay loop runs; a loop repeats its
// whole input until the budget is spent and reports the mean.
const replayBudget = 50 * time.Millisecond

// replayWire times the wire codec's public functions on the captured
// datagrams: UnmarshalBinary and Append per datagram, each type timed on
// its own captures and weighted by how many of that type the timed phase
// wrote, and VisitSummaryKeys per key on the summary refreshes.
func replayWire(tr *tracer) (encNs, decNs, visitNsPerKey float64) {
	var total float64
	for typ, caps := range tr.caps {
		if len(caps) == 0 {
			continue
		}
		msgs := make([]wire.Message, 0, len(caps))
		for _, c := range caps {
			var m wire.Message
			if m.UnmarshalBinary(c.data) == nil {
				msgs = append(msgs, m)
			}
		}
		dec := loop(len(caps), func() {
			var m wire.Message
			for _, c := range caps {
				_ = m.UnmarshalBinary(c.data)
			}
		})
		buf := make([]byte, 0, 16<<10)
		enc := loop(len(msgs), func() {
			for i := range msgs {
				buf, _ = msgs[i].Append(buf[:0])
			}
		})
		w := float64(tr.written[typ])
		decNs += w * dec
		encNs += w * enc
		total += w
		if wire.Type(typ) == wire.TypeSummaryRefresh {
			keys := 0
			for _, c := range caps {
				_, _ = wire.VisitSummaryKeys(c.data, func(uint64, []byte) { keys++ })
			}
			visitNsPerKey = loop(keys, func() {
				for _, c := range caps {
					_, _ = wire.VisitSummaryKeys(c.data, func(uint64, []byte) {})
				}
			})
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return encNs / total, decNs / total, visitNsPerKey
}

// summaryKeysPerDgram is the mean key count of the captured summary
// refreshes (0 when the workload sent none).
func summaryKeysPerDgram(caps []captured) float64 {
	keys, dgrams := 0, 0
	for _, c := range caps {
		if _, err := wire.VisitSummaryKeys(c.data, func(uint64, []byte) { keys++ }); err == nil {
			dgrams++
		}
	}
	if dgrams == 0 {
		return 0
	}
	return float64(keys) / float64(dgrams)
}

// replayEntry stands in for a receiver's table value.
type replayEntry struct {
	seq uint64
}

// replayTable times statetable.Table on the key stream the captured
// datagrams carried, keyed as a receiver keys them (source address, NUL,
// key): Upsert with a timer armed, UpdateBytes renewing it, and Delete.
// The table runs on a virtual clock that never advances, so no timer
// fires during the replay.
func replayTable(tr *tracer) (upsertNs, renewNs, deleteNs float64) {
	seen := map[string]struct{}{}
	var keys []string
	add := func(src string, key []byte) {
		k := src + "\x00" + string(key)
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	for _, caps := range tr.caps {
		for _, c := range caps {
			switch wire.PeekType(c.data) {
			case wire.TypeSummaryRefresh:
				_, _ = wire.VisitSummaryKeys(c.data, func(_ uint64, k []byte) { add(c.src, k) })
			default:
				var m wire.Message
				if m.UnmarshalBinary(c.data) == nil && m.Key != "" {
					add(c.src, []byte(m.Key))
				}
			}
		}
	}
	if len(keys) == 0 {
		return 0, 0, 0
	}
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i] = []byte(k)
	}
	const timeout statetable.TimerKind = 0
	newTable := func() *statetable.Table[replayEntry] {
		return statetable.New(statetable.Config[replayEntry]{Shards: 16, Clock: clock.NewVirtual()})
	}
	fill := func(t *statetable.Table[replayEntry]) {
		for _, k := range keys {
			t.Upsert(k, func(v *replayEntry, _ bool, tc statetable.TimerControl[replayEntry]) {
				v.seq++
				tc.Schedule(timeout, time.Hour)
			})
		}
	}
	var upT, delT time.Duration
	rounds := 0
	for start := time.Now(); time.Since(start) < replayBudget || rounds == 0; rounds++ {
		t := newTable()
		s := time.Now()
		fill(t)
		upT += time.Since(s)
		s = time.Now()
		for _, k := range keys {
			t.Delete(k)
		}
		delT += time.Since(s)
		t.Close()
	}
	t := newTable()
	defer t.Close()
	fill(t)
	renewNs = loop(len(keys), func() {
		for _, k := range bkeys {
			t.UpdateBytes(k, func(v *replayEntry, tc statetable.TimerControl[replayEntry]) {
				v.seq++
				tc.Schedule(timeout, time.Hour)
			})
		}
	})
	n := float64(rounds * len(keys))
	return float64(upT) / n, renewNs, float64(delT) / n
}

// loop runs body (which processes items items) repeatedly for
// replayBudget and returns nanoseconds per item.
func loop(items int, body func()) float64 {
	if items == 0 {
		return 0
	}
	rounds := 0
	start := time.Now()
	for time.Since(start) < replayBudget || rounds == 0 {
		body()
		rounds++
	}
	return float64(time.Since(start)) / float64(rounds*items)
}
