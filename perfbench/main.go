// Command perfbench is the repository's benchmark. It drives the system
// only through its public packages (peer, transport, value, daemon, wepic,
// parser, protocol) on one of three workloads, checks every output against
// its own model, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload feed --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/ast"
)

// system is one built workload deployment.
type system interface {
	// run drives the closed loop until d of measured time has passed,
	// checking every op's effect once it is visible.
	run(ctx context.Context, d time.Duration, rec *recorder) error
	// verify compares the whole output state with the workload's model.
	verify(ctx context.Context) error
	// facts counts the facts stored across every peer.
	facts() int
	// read fills s with the system's counters.
	read(ctx context.Context, s *snap) error
	// observed returns the workload observations accumulated by run.
	observed() *extras
	// sampleFacts are facts shaped like the ones the run sends between
	// peers, for the parser and codec timings.
	sampleFacts() []ast.Fact
	close()
}

type workload struct {
	name string
	// setups is how many times an untraced run builds the system; setup_s
	// is their median.
	setups int
	build  func(ctx context.Context, seed int64, tr *tracer) (system, error)
}

func workloads(tiny bool) []workload {
	fs, ws, ps := feedFull, wireFull, wepicFull
	if tiny {
		fs = feedSizes{Peers: 40, Follows: 4, Posts: 8, PostBytes: 32, Round: 5}
		ws = wireSizes{Clients: 2, Facts: 2, Window: 16, PayloadBytes: 20}
		ps = wepicSizes{Attendees: 30, Pictures: 4, PicBytes: 16, Round: 5}
	}
	return []workload{
		{"feed", 5, func(ctx context.Context, seed int64, tr *tracer) (system, error) {
			return buildFeed(ctx, fs, seed, tr)
		}},
		{"wire", 15, func(ctx context.Context, seed int64, tr *tracer) (system, error) {
			return buildWire(ctx, ws, seed, tr)
		}},
		{"wepic", 5, func(ctx context.Context, seed int64, tr *tracer) (system, error) {
			return buildWepic(ctx, ps, seed, tr)
		}},
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	profile  bool
	out      string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a result plus the human-readable lines printed before it.
type report struct {
	result
	lines []string
}

func (r *report) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// deadline bounds a whole run; a run still going then is abandoned with
// an error instead of a result.
const deadline = 170 * time.Second

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: feed, wire or wepic")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.BoolVar(&o.profile, "profile", false, "write a CPU and a heap profile to --out")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans and profiles")
	flag.Parse()
	o.trace = traceFlag == 1

	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s run exceeded %v\n", o.workload, deadline)
		os.Exit(2)
	})
	defer watchdog.Stop()

	rep, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func execute(ctx context.Context, o options) (*report, error) {
	var w *workload
	for _, c := range workloads(o.tiny) {
		if c.name == o.workload {
			w = &c
			break
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want feed, wire or wepic)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	rep.say("perfbench workload=%s seed=%d seconds=%g trace=%t", w.name, o.seed, o.seconds, o.trace)
	var err error
	if o.trace {
		err = traced(ctx, w, o, rep)
	} else {
		err = untraced(ctx, w, o, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// untraced measures the end-to-end metrics.
func untraced(ctx context.Context, w *workload, o options, rep *report) error {
	var setups []float64
	var sys system
	var heap uint64
	for i := 0; i < w.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		base := settledHeap()
		start := time.Now()
		s, err := w.build(ctx, o.seed, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		sys = s
		if h := settledHeap(); h > base {
			heap = h - base
		}
	}
	defer sys.close()
	facts := sys.facts()

	rec := &recorder{}
	if err := profiled(o, w.name, func() error { return sys.run(ctx, seconds(o.seconds), rec) }); err != nil {
		return err
	}
	verr := sys.verify(ctx)
	rep.finish(rec, verr)

	vals := map[string]float64{
		"setup_s":             median(setups),
		"ops_per_s":           rec.opsPerSecond(),
		"visible_p50_ms":      percentileMS(rec.visible, 0.50),
		"visible_p99_ms":      percentileMS(rec.visible, 0.99),
		"apply_p50_ms":        percentileMS(rec.apply, 0.50),
		"apply_p99_ms":        percentileMS(rec.apply, 0.99),
		"heap_bytes_per_fact": float64(heap) / float64(max(facts, 1)),
	}
	rep.Metrics = make(map[string]metricValue)
	rep.say("setups (s): %s; %d facts stored; %d visible and %d apply samples",
		floats(setups), facts, len(rec.visible), len(rec.apply))
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		rep.say("  %-22s %14.4f %s", m.name, vals[m.name], m.unit)
	}
	rep.say("  %-22s %14.4f ratio (%d of %d ops failed)", "failed_ratio",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	return nil
}

// finish folds a phase's counts and the final output check into the
// report.
func (r *report) finish(rec *recorder, verr error) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	for _, e := range rec.errs {
		r.say("op failure: %s", e)
	}
	if verr != nil {
		r.say("output check failed: %v", verr)
		r.Failed++
		r.Attempted = max(r.Attempted, r.Failed)
	}
	r.Correct = r.Failed == 0
}

// traced measures the per-layer metrics: an untraced reference phase and a
// traced phase of half the run each, on fresh systems built from the same
// seed, so the traced phase replays the reference's operations.
func traced(ctx context.Context, w *workload, o options, rep *report) error {
	half := seconds(o.seconds / 2)

	ref, err := w.build(ctx, o.seed, nil)
	if err != nil {
		return err
	}
	var r0, r1 snap
	refRec := &recorder{}
	err = ref.read(ctx, &r0)
	if err == nil {
		err = profiled(o, w.name, func() error { return ref.run(ctx, half, refRec) })
	}
	if err == nil {
		err = ref.read(ctx, &r1)
	}
	refX := ref.observed()
	verr := ref.verify(ctx)
	ref.close()
	if err != nil {
		return err
	}
	rep.finish(refRec, verr)
	refScans := 0.0
	if refX.rounds > 0 {
		refScans = float64(r1.schedScans-r0.schedScans) / float64(refX.rounds)
	}

	tr := newTracer()
	sys, err := w.build(ctx, o.seed, tr)
	if err != nil {
		return err
	}
	defer sys.close()
	var a, b snap
	rec := &recorder{}
	if err := sys.read(ctx, &a); err != nil {
		return err
	}
	a.readRuntime()
	if err := sys.run(ctx, half, rec); err != nil {
		return err
	}
	b.readRuntime()
	if err := sys.read(ctx, &b); err != nil {
		return err
	}
	rep.finish(rec, sys.verify(ctx))

	x := sys.observed()
	samples := sys.sampleFacts()
	var srcs []string
	for _, f := range samples {
		srcs = append(srcs, f.String())
	}
	vals := layerMetrics(&a, &b, x)
	if vals["parser.parse_fact_us"], err = parseFactUS(srcs); err != nil {
		return err
	}
	enc, dec, size, allocs, err := codecCost(samples, vals["peer.outbox.facts_per_msg"])
	if err != nil {
		return err
	}
	vals["protocol.encode_us_per_msg"] = enc
	vals["protocol.decode_us_per_msg"] = dec
	vals["protocol.bytes_per_msg"] = size
	vals["protocol.allocs_per_msg"] = allocs

	ops := float64(max(x.ops, 1))
	self := tr.selfTimes()
	us := func(name string) float64 { return float64(self[name].Microseconds()) / ops }
	refRate, rate := refRec.opsPerSecond(), rec.opsPerSecond()
	vals["trace.ops_ratio"] = rate / max(refRate, 1e-9)
	vals["trace.spans_per_op"] = float64(tr.count()) / ops
	vals["trace.apply_self_us_per_op"] = us("apply")
	vals["trace.quiesce_self_us_per_op"] = us("quiesce")
	vals["trace.send_self_us_per_op"] = us("send")
	vals["trace.wait_self_us_per_op"] = us("wait")

	spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(spans); err != nil {
		return err
	}
	rep.say("tracing overhead: traced %.1f ops/s over untraced %.1f ops/s = %.3f; %d spans in %s",
		rate, refRate, vals["trace.ops_ratio"], tr.count(), spans)

	// The traced feed wraps every endpoint; a wrapper that lost the wake
	// hooks would make the scheduler poll every peer every round.
	if w.name == "feed" {
		got := vals["peer.sched.scans_per_round"]
		rep.say("scheduler scans per round: traced %.1f, untraced %.1f", got, refScans)
		if got > 1.25*refScans+1 || got < 0.8*refScans-1 {
			rep.say("output check failed: traced scans per round %.1f differ from untraced %.1f: the endpoint wrapper changed scheduling", got, refScans)
			rep.Failed++
			rep.Correct = false
		}
	}

	rep.Metrics = make(map[string]metricValue)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		rep.say("  %-40s %14.4f %-6s moves %s", m.name, vals[m.name], m.unit, m.moves)
	}
	return nil
}

// profiled runs fn, under a CPU profile when o.profile is set, and then
// writes a heap profile.
func profiled(o options, name string, fn func() error) error {
	if !o.profile {
		return fn()
	}
	cpu, err := os.Create(filepath.Join(o.out, name+"-cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := cpu.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	heap, err := os.Create(filepath.Join(o.out, name+"-heap.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(heap); err != nil {
		heap.Close()
		return err
	}
	return heap.Close()
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
