package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/peer"
)

// recorder collects one measured phase: per-op latencies, failures, and
// the completed ops and measured time the throughput is computed from.
type recorder struct {
	mu        sync.Mutex
	apply     []time.Duration
	visible   []time.Duration
	completed int
	measured  time.Duration
	attempted int
	failed    int
	errs      []string
}

func (r *recorder) addApply(d time.Duration) {
	r.mu.Lock()
	r.apply = append(r.apply, d)
	r.mu.Unlock()
}

func (r *recorder) addVisible(d time.Duration) {
	r.mu.Lock()
	r.visible = append(r.visible, d)
	r.mu.Unlock()
}

// addBatch records ops that completed after d more of measured time.
func (r *recorder) addBatch(ops int, d time.Duration) {
	r.mu.Lock()
	r.completed += ops
	r.measured += d
	r.mu.Unlock()
}

// attempt counts n attempted ops, failed of which failed; err, when set,
// is kept (the first few) for the report.
func (r *recorder) attempt(n, failed int, err error) {
	r.mu.Lock()
	r.attempted += n
	r.failed += failed
	if err != nil && len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

func (r *recorder) elapsed() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.measured
}

// opsPerSecond is the completed ops over the measured time. Over a whole
// run it averages the collector's cycles in proportion, which a median of
// short windows would not.
func (r *recorder) opsPerSecond() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.measured <= 0 {
		return 0
	}
	return float64(r.completed) / r.measured.Seconds()
}

// percentileMS returns the nearest-rank q-quantile of ds in milliseconds.
func percentileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// settledHeap runs the collector twice (finalizers, then what they free)
// and returns the live heap.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snap is a point-in-time reading of every counter the per-layer metrics
// are computed from; the metrics are differences of two snaps.
type snap struct {
	stats peer.Stats
	prom  map[string]float64

	compiles, compiledHits, compileFallbacks uint64
	planHits, planMisses                     uint64

	schedScans uint64
	transport  transportCounts

	facts, indexes               int
	internStrings, internTuples  int
	cpu                          time.Duration
	totalAlloc, mallocs, pauseNS uint64
	numGC                        uint32
}

// transportCounts are the transport layer's counters, read from the
// wrapping endpoint (feed) or the bus (wepic).
type transportCounts struct {
	sends, dataMsgs, acks uint64
	sendNS                uint64
	drains, drained       uint64
}

// readPeers adds the peers' lifetime counters, engine counters and store
// sizes to s.
func (s *snap) readPeers(peers []*peer.Peer) {
	for _, p := range peers {
		addStats(&s.stats, p.Stats())
		c, h, f := p.Engine().CompiledStats()
		s.compiles += c
		s.compiledHits += h
		s.compileFallbacks += f
		ph, pm := p.Engine().PlanCacheStats()
		s.planHits += ph
		s.planMisses += pm
		for _, rel := range p.Store().RelationsOf(p.Name()) {
			s.facts += rel.Len()
			s.indexes += rel.IndexCount()
		}
	}
}

// readRuntime records CPU time and allocation counters.
func (s *snap) readRuntime() {
	s.cpu = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.mallocs, s.pauseNS, s.numGC = ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs, ms.NumGC
}

// addStats sums every counter of s into dst (peer.Stats is all uint64).
func addStats(dst *peer.Stats, s peer.Stats) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(s)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetUint(dv.Field(i).Uint() + sv.Field(i).Uint())
	}
}

// promSums reads a registry's Prometheus text exposition and sums every
// series by metric name across labels (histograms contribute their _sum
// and _count series).
func promSums(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// registrySums reads an in-process registry.
func registrySums(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return nil, err
	}
	return promSums(&buf)
}

// scrapeSums reads a daemon's /metrics over HTTP.
func scrapeSums(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return promSums(resp.Body)
}

func mergeSums(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// extras are the per-layer inputs a snap cannot hold: the phase's op and
// round counts and the workload-specific observations.
type extras struct {
	ops                      int
	rounds                   int // benchmark rounds (feed, wepic)
	schedRounds, schedStages int
	roundTime                time.Duration

	depthMax      int
	requests      int // wire HTTP requests
	rejected      int // wire non-200 answers
	subDeltas     int
	unobserved    int
	visibleLocal  []time.Duration
	visibleRemote []time.Duration
}

// layerMetrics computes the per-layer metrics that come from two snaps
// and the run's observations; the traced run adds the parser, codec and
// span metrics.
func layerMetrics(a, b *snap, x *extras) map[string]float64 {
	ops := float64(max(x.ops, 1))
	div := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	st := func(get func(*peer.Stats) uint64) float64 {
		return float64(get(&b.stats) - get(&a.stats))
	}
	pr := func(name string) float64 { return b.prom[name] - a.prom[name] }

	stages := st(func(s *peer.Stats) uint64 { return s.Stages })
	skipped := st(func(s *peer.Stats) uint64 { return s.StagesSkipped })
	enq := st(func(s *peer.Stats) uint64 { return s.OutboxEnqueued })
	factsOut := st(func(s *peer.Stats) uint64 { return s.FactsOut })
	compiles := float64(b.compiles - a.compiles)
	hits := float64(b.compiledHits - a.compiledHits)
	fallbacks := float64(b.compileFallbacks - a.compileFallbacks)
	planHits := float64(b.planHits - a.planHits)
	planMisses := float64(b.planMisses - a.planMisses)
	stageSec := pr("wdl_stage_seconds_sum")
	tc := transportCounts{
		sends:    b.transport.sends - a.transport.sends,
		dataMsgs: b.transport.dataMsgs - a.transport.dataMsgs,
		acks:     b.transport.acks - a.transport.acks,
		sendNS:   b.transport.sendNS - a.transport.sendNS,
		drains:   b.transport.drains - a.transport.drains,
		drained:  b.transport.drained - a.transport.drained,
	}
	rounds := float64(x.rounds)
	reqs := float64(x.requests)

	m := map[string]float64{
		"daemon.backpressure_waits_per_req": div(pr("wdl_backpressure_waits_total"), reqs),
		"daemon.rejected_per_req":           div(float64(x.rejected), reqs),

		"peer.stages_per_op":             stages / ops,
		"peer.stages_skipped_ratio":      div(skipped, stages+skipped),
		"peer.stage_us_per_op":           stageSec * 1e6 / ops,
		"peer.fixpoint_rounds_per_stage": div(pr("wdl_stage_fixpoint_rounds_sum"), pr("wdl_stage_fixpoint_rounds_count")),
		"peer.facts_out_per_op":          factsOut / ops,
		"peer.derived_per_op":            st(func(s *peer.Stats) uint64 { return s.Derived }) / ops,
		"peer.delegations_per_op":        st(func(s *peer.Stats) uint64 { return s.DelegationsOut }) / ops,

		"peer.outbox.msgs_per_op":          enq / ops,
		"peer.outbox.facts_per_msg":        div(factsOut, enq),
		"peer.outbox.acked_ratio":          div(st(func(s *peer.Stats) uint64 { return s.OutboxDelivered }), enq),
		"peer.outbox.retransmits_per_kmsg": div(1000*st(func(s *peer.Stats) uint64 { return s.OutboxRetransmits }), enq),
		"peer.outbox.send_errors":          st(func(s *peer.Stats) uint64 { return s.OutboxSendErrors }),
		"peer.outbox.depth_max":            float64(x.depthMax),
		"peer.outbox.resync_bytes_per_op": (st(func(s *peer.Stats) uint64 { return s.ResyncSnapshotBytes }) +
			st(func(s *peer.Stats) uint64 { return s.ResyncRangedRepairBytes }) +
			st(func(s *peer.Stats) uint64 { return s.ResyncRangeDigestBytes })) / ops,
		"peer.outbox.resync_adverts": st(func(s *peer.Stats) uint64 { return s.ResyncAdverts }),

		"peer.sched.round_us":          div(float64(x.roundTime.Microseconds()), rounds),
		"peer.sched.rounds_per_round":  div(float64(x.schedRounds), rounds),
		"peer.sched.stages_per_round":  div(float64(x.schedStages), rounds),
		"peer.sched.scans_per_round":   div(float64(b.schedScans-a.schedScans), rounds),
		"peer.sched.stage_share":       div(stageSec, x.roundTime.Seconds()),
		"peer.subscribe.deltas_per_op": float64(x.subDeltas) / ops,
		"peer.subscribe.drops":         st(func(s *peer.Stats) uint64 { return s.SubscriptionDrops }),

		"peer.subscribe.unobserved_inserts":    float64(x.unobserved),
		"peer.subscribe.visible_local_p50_ms":  percentileMS(x.visibleLocal, 0.5),
		"peer.subscribe.visible_remote_p50_ms": percentileMS(x.visibleRemote, 0.5),

		"engine.compiles_per_op":         compiles / ops,
		"engine.compiled_hit_ratio":      div(hits, hits+compiles+fallbacks),
		"engine.plan_cache_hit_ratio":    div(planHits, planHits+planMisses),
		"store.facts":                    float64(b.facts),
		"store.indexes":                  float64(b.indexes),
		"value.interned_tuples_per_fact": div(float64(b.internTuples), float64(b.facts)),
		"value.interned_strings":         float64(b.internStrings),

		"transport.sends_per_op":        float64(tc.sends) / ops,
		"transport.send_us":             div(float64(tc.sendNS)/1e3, float64(tc.sends)),
		"transport.acks_per_data_msg":   div(float64(tc.acks), float64(tc.dataMsgs)),
		"transport.envelopes_per_drain": div(float64(tc.drained), float64(tc.drains)),

		"runtime.cpu_ms_per_op":      float64((b.cpu - a.cpu).Microseconds()) / 1e3 / ops,
		"runtime.alloc_bytes_per_op": float64(b.totalAlloc-a.totalAlloc) / ops,
		"runtime.allocs_per_op":      float64(b.mallocs-a.mallocs) / ops,
		"runtime.gc_per_kop":         1000 * float64(b.numGC-a.numGC) / ops,
		"runtime.gc_pause_us_per_op": float64(b.pauseNS-a.pauseNS) / 1e3 / ops,
	}
	return m
}
