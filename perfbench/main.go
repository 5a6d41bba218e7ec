// Command perfbench is the repository benchmark. One invocation runs one
// workload against the live signaling stack, checks the workload's
// output, and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench -workload fanout-refresh -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end metrics (see README.md),
// measured on untraced repetitions. With -trace 1 the invocation runs the
// workload once untraced and once with the benchmark's own tracing
// wrappers at the same seed, checks that tracing changed no virtual-time
// outcome, and reports the per-layer metrics; the recorded spans and
// boundary counts are written to <out>/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	out      string
}

// workload is one benchmark input set. run performs one repetition; tr
// is nil on untraced repetitions.
type workload struct {
	name string
	// virtual workloads run in simulated time: their outcome counts are a
	// pure function of the seed and repeat exactly.
	virtual bool
	run     func(o options, tr *tracer) (*rep, error)
}

var workloads = []workload{
	{name: "fanout-refresh", virtual: true, run: runFanout},
	{name: "chain-churn", virtual: true, run: runChain},
	{name: "wire-hs", virtual: false, run: runWireHS},
}

// minReps is the fewest untraced repetitions a virtual-time workload
// runs, however short -seconds is: each reported figure is a median.
const minReps = 3

func main() {
	var (
		o      options
		trace  int
		wlName string
	)
	flag.StringVar(&wlName, "workload", "", "workload: fanout-refresh, chain-churn or wire-hs")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for trace output")
	flag.Parse()
	o.workload = wlName

	var w *workload
	for i := range workloads {
		if workloads[i].name == wlName {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", wlName, o.seconds, trace)
		os.Exit(2)
	}
	// Two Ps: the workloads' protocol goroutines hand datagrams to each
	// other, and GOMAXPROCS 1 measured no steadier on the virtual-time
	// workloads. Capped at the CPU count.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	env := environment(o)
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)

	var res result
	var err error
	if trace == 1 {
		res, err = traced(*w, o, env)
	} else {
		res, err = untraced(*w, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wlName, err)
		os.Exit(1)
	}
	res.note(true, "peak RSS %s", peakRSS())
	res.print(os.Stdout)
}

// untraced runs repetitions until -seconds have passed (at least minReps
// for virtual workloads; wire-hs is one open-loop run of -seconds) and
// reports the end-to-end metrics as medians across them.
func untraced(w workload, o options) (result, error) {
	start := time.Now()
	var reps []*rep
	for {
		r, err := w.run(o, nil)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		if !w.virtual || (len(reps) >= minReps && time.Since(start) >= time.Duration(o.seconds)*time.Second) {
			break
		}
	}
	res := result{Correct: true, Metrics: endToEnd(reps)}
	for i, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.note(false, "rep %d: %s", i, p)
		}
		if w.virtual && i > 0 && !sameOutcome(reps[0], r) {
			res.note(false, "rep %d: virtual-time outcome differs from rep 0 at the same seed (%s vs %s)",
				i, r.outcome(), reps[0].outcome())
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	r0 := reps[0]
	res.note(true, "reps %d; outcome %s", len(reps), r0.outcome())
	var walls []string
	for _, r := range reps {
		walls = append(walls, fmt.Sprintf("%.3fs/%.3fs", r.timed.Seconds(), r.cpu.Seconds()))
	}
	res.note(true, "timed phase per rep (wall/cpu): %s", strings.Join(walls, " "))
	if !w.virtual {
		res.note(true, "generator lateness: p99 %v, max %v over %d ticks",
			r0.lateP99, r0.lateMax, r0.ticks)
	}
	return res, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract; notes are the human-readable
// report lines printed before the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

// note records a report line; a note with ok false also marks the result
// incorrect.
func (r *result) note(ok bool, format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if !ok {
		r.Correct = false
		line = "CHECK FAILED: " + line
	}
	r.notes = append(r.notes, line)
}

func (r result) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-36s %16.6g %s", n, m.Value, m.Unit)
		if t, ok := layerTargets[n]; ok {
			line += "  -> " + t
		}
		fmt.Fprintf(f, "# %s\n", line)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintf(f, "%s\n", b)
}

// env is recorded with every result.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// Source hashes the module's Go sources and go.mod: checkouts the
	// benchmark runs in carry no version-control metadata, so this digest
	// stands in for the commit.
	Source string `json:"source_sha256"`
}

func environment(o options) env {
	e := env{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Go: runtime.Version(), CPU: "unknown", Source: sourceDigest(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSS reads the process's peak resident set size from procfs.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeJSON writes v to out/name.
func writeJSON(out, name string, v any) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, name), b, 0o644)
}
