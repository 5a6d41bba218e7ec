package main

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/transport"
	"softstate/internal/wire"
)

// tracer records spans at the boundaries the benchmark owns: conn
// wrappers on every endpoint, the Node.Install/Remove calls, the OnEvent
// callbacks and each virtual-clock Run step. Every boundary keeps exact
// counts and busy/wait totals; spans are kept as a bounded sample. A nil
// *tracer records nothing, so untraced repetitions run the same code
// with no wrappers and no timing calls.
type tracer struct {
	base time.Time
	ids  atomic.Uint64
	step atomic.Uint64 // open clock.run_step span; parent of conn spans

	// Datagram accounting covers the timed phase only (timed set).
	timed atomic.Bool

	mu      sync.Mutex
	bounds  map[string]*boundary
	spans   []span
	dropped int64
	caps    [wire.NumTypes][]captured // per wire type, bounded
	written [wire.NumTypes]int64      // datagrams written per wire type
	bytes   int64                     // datagram bytes written
	firsts  int64                     // distinct (endpoint, destination, type, key, seq) triggers and removals
	repeats int64                     // retransmissions of those
	seen    map[string]struct{}
}

// boundary aggregates one span name exactly.
type boundary struct {
	Calls  int64 `json:"calls"`
	Items  int64 `json:"items"`   // datagrams moved, for conn boundaries
	BusyNs int64 `json:"busy_ns"` // time inside the call (writes, callbacks, steps) or between reads
	WaitNs int64 `json:"wait_ns"` // time blocked waiting for input (reads)
	kept   int
}

// span is one recorded interval, in nanoseconds since the tracer began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"` // operation (key) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// captured is one datagram copied off a conn for the wire/statetable
// replay.
type captured struct {
	src  string
	data []byte
}

const (
	spansPerBoundary = 2000 // sample cap per span name
	capturePerType   = 2048 // datagrams kept for replay, per wire type
)

func newTracer() *tracer {
	return &tracer{base: time.Now(), bounds: make(map[string]*boundary), seen: make(map[string]struct{})}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// record accounts one call at boundary name and samples its span. A read
// passes readBusy >= 0, the time its goroutine spent busy since the
// previous read returned: the read call itself counts as waiting for
// input. Every other call passes -1 and counts as busy. Spans are kept
// while few, then one in 64, up to spansPerBoundary per name.
func (t *tracer) record(id uint64, name string, parent, trace uint64, start, end, items, readBusy int64) {
	t.mu.Lock()
	b := t.bounds[name]
	if b == nil {
		b = &boundary{}
		t.bounds[name] = b
	}
	b.Calls++
	b.Items += items
	if readBusy >= 0 {
		b.WaitNs += end - start
		b.BusyNs += readBusy
	} else {
		b.BusyNs += end - start
	}
	if b.kept < spansPerBoundary && (b.Calls <= 500 || b.Calls%64 == 0) {
		b.kept++
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// call records a completed call at boundary name (nil-safe).
func (t *tracer) call(name string, trace uint64, start int64) {
	if t == nil {
		return
	}
	t.record(t.ids.Add(1), name, t.step.Load(), trace, start, t.now(), 0, -1)
}

// timedPhase turns datagram accounting on at the start of the timed
// phase and off at its end (nil-safe).
func (t *tracer) timedPhase(on bool) {
	if t != nil {
		t.timed.Store(on)
	}
}

// runStep brackets one virtual-clock Run step: conn spans recorded while
// it is open name it as their parent.
func (t *tracer) runStep(run func()) {
	if t == nil {
		run()
		return
	}
	id := t.ids.Add(1)
	start := t.now()
	t.step.Store(id)
	run()
	t.step.Store(0)
	t.record(id, "clock.run_step", 0, 0, start, t.now(), 0, -1)
}

// wrote accounts a datagram an endpoint wrote during the timed phase:
// counts and bytes per wire type, a bounded capture for replay (the
// first datagrams of each type, then one in 16), and retransmission
// detection for triggers and removals (a repeat of an already-sent
// (type, key, seq) to the same destination).
func (t *tracer) wrote(src string, data []byte, to net.Addr) {
	typ := wire.PeekType(data)
	if !t.timed.Load() || !typ.Valid() {
		return
	}
	var id string
	if typ == wire.TypeTrigger || typ == wire.TypeRemoval {
		var m wire.Message
		if m.UnmarshalBinary(data) == nil {
			id = src + "|" + to.String() + "|" + m.Type.String() + "|" + m.Key + "|" + strconv.FormatUint(m.Seq, 10)
		}
	}
	t.mu.Lock()
	t.written[typ]++
	t.bytes += int64(len(data))
	if n := t.written[typ]; len(t.caps[typ]) < capturePerType && (n <= capturePerType/2 || n%16 == 0) {
		t.caps[typ] = append(t.caps[typ], captured{src: src, data: append([]byte(nil), data...)})
	}
	if id != "" {
		if _, ok := t.seen[id]; ok {
			t.repeats++
		} else {
			t.seen[id] = struct{}{}
			t.firsts++
		}
	}
	t.mu.Unlock()
}

// wrap returns pc behind a timing wrapper at layer ("lossy" or
// "transport"), or pc itself when t is nil. A transport.Conn keeps its
// batch interface and Stats, so batching is preserved.
func (t *tracer) wrap(pc net.PacketConn, layer string) net.PacketConn {
	if t == nil {
		return pc
	}
	tc := &tracedConn{PacketConn: pc, t: t, layer: layer, src: pc.LocalAddr().String()}
	if bc, ok := pc.(transport.Conn); ok {
		return &tracedBatch{tracedConn: tc, bc: bc}
	}
	return tc
}

// tracedConn times WriteTo and ReadFrom. Reads record the time blocked
// in the call as wait and the time since the previous read returned as
// busy: each conn has exactly one reader goroutine, which owns lastRead.
type tracedConn struct {
	net.PacketConn
	t        *tracer
	layer    string
	src      string
	lastRead int64
}

func (c *tracedConn) WriteTo(p []byte, to net.Addr) (int, error) {
	start := c.t.now()
	n, err := c.PacketConn.WriteTo(p, to)
	c.t.record(c.t.ids.Add(1), c.layer+".write", c.t.step.Load(), 0, start, c.t.now(), 1, -1)
	c.t.wrote(c.src, p, to)
	return n, err
}

func (c *tracedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	start := c.t.now()
	n, addr, err := c.PacketConn.ReadFrom(p)
	c.readDone(start, 1)
	return n, addr, err
}

func (c *tracedConn) readDone(start, items int64) {
	end := c.t.now()
	busy := int64(0)
	if c.lastRead > 0 {
		busy = start - c.lastRead
	}
	c.lastRead = end
	c.t.record(c.t.ids.Add(1), c.layer+".read", c.t.step.Load(), 0, start, end, items, busy)
}

// tracedBatch is tracedConn over a transport.Conn.
type tracedBatch struct {
	*tracedConn
	bc transport.Conn
}

func (c *tracedBatch) Stats() *transport.Stats { return c.bc.Stats() }

func (c *tracedBatch) WriteBatch(ms []transport.Message) (int, error) {
	start := c.t.now()
	n, err := c.bc.WriteBatch(ms)
	c.t.record(c.t.ids.Add(1), c.layer+".write", c.t.step.Load(), 0, start, c.t.now(), int64(len(ms)), -1)
	for i := range ms {
		c.t.wrote(c.src, ms[i].Data, ms[i].Addr)
	}
	return n, err
}

func (c *tracedBatch) ReadBatch(ms []transport.Message) (int, error) {
	start := c.t.now()
	n, err := c.bc.ReadBatch(ms)
	c.readDone(start, int64(n))
	return n, err
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Env        env                  `json:"env"`
	Boundaries map[string]*boundary `json:"boundaries"`
	Spans      []span               `json:"spans"`
	Dropped    int64                `json:"spans_not_kept"`
	Metrics    map[string]metric    `json:"per_layer"`
	Targets    map[string]string    `json:"targets"`
}

// totals returns a copy of boundary name's aggregates.
func (t *tracer) totals(name string) boundary {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.bounds[name]; b != nil {
		return *b
	}
	return boundary{}
}
