package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/daemon"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/value"
)

// wire: the service path over real TCP. Daemon A hosts hub and the
// co-hosted replica local; daemon B hosts the replica remote. Two
// intensional mirrors of data@hub are maintained on local and remote.
// Clients POST /apply in a closed loop: one request inserts Facts facts
// and retracts the facts the same client inserted Window requests
// earlier, so the hub view stays at Clients*Window*Facts facts.
// Subscriptions on both replicas timestamp arrivals.

type wireSizes struct {
	Clients, Facts, Window, PayloadBytes int
}

var wireFull = wireSizes{Clients: 2, Facts: 4, Window: 16, PayloadBytes: 100}

// The daemons' queue bounds: per-destination outbox entries and staged
// local ops, both with blocking admission.
const wireQueueLimit = 64

// visTimeout bounds how long a request's inserts may take to reach both
// replicas before the request counts as failed.
const visTimeout = 30 * time.Second

const (
	replLocal = iota
	replRemote
)

// wireRequest is one /apply request in flight: its inserts must reach both
// replica subscriptions.
type wireRequest struct {
	id      int64
	span    uint64
	start   time.Time
	applied time.Time
	keys    []string
	left    [2]int
	at      [2]time.Time
	done    chan struct{}
}

// replica is a subscription's view of one mirror, rebuilt from deltas.
type replica struct {
	mu     sync.Mutex
	set    map[string]bool // tuple keys
	deltas int
}

type wireSystem struct {
	sz    wireSizes
	tr    *tracer
	a, b  *daemon.Daemon
	baseA string
	baseB string
	httpc *http.Client

	stopSubs context.CancelFunc
	subsWG   sync.WaitGroup
	repl     [2]*replica

	mu      sync.Mutex
	waiting map[string]*wireRequest // fact key -> request awaiting it
	seen    map[string]uint8        // fact key -> replicas that saw it

	// settle bounds how long verify waits for the replicas to converge.
	settle  time.Duration
	clients []*wireClient
	reqSeq  int64
	x       extras
	xmu     sync.Mutex
	samples []ast.Fact
}

type wireClient struct {
	id   int
	rng  *rand.Rand
	seq  int
	live [][]string     // fact strings of the last Window requests, oldest first
	keys [][]string     // their tuple keys
	reqs []*wireRequest // their requests (nil for the preload)
}

const (
	wireHub = `relation extensional data@hub(k, p);
relation intensional mirror@local(k, p);
relation intensional mirror@remote(k, p);
mirror@local($k, $p) :- data@hub($k, $p);
mirror@remote($k, $p) :- data@hub($k, $p);`
	wireLocal  = `relation intensional mirror@local(k, p);`
	wireRemote = `relation intensional mirror@remote(k, p);`
)

func buildWire(ctx context.Context, sz wireSizes, seed int64, tr *tracer) (system, error) {
	s := &wireSystem{
		sz:      sz,
		tr:      tr,
		waiting: make(map[string]*wireRequest),
		seen:    make(map[string]uint8),
		settle:  visTimeout,
		httpc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: sz.Clients + 2,
		}},
	}
	if err := s.start(ctx); err != nil {
		s.close()
		return nil, err
	}
	for c := 0; c < sz.Clients; c++ {
		s.clients = append(s.clients, &wireClient{id: c, rng: rand.New(rand.NewSource(seed*131 + int64(c)))})
	}
	// Preload every client's window through the same /apply path, then
	// wait until both replicas hold the whole view.
	for _, cl := range s.clients {
		for k := 0; k < sz.Window; k++ {
			ins, keys := s.nextFacts(cl)
			code, err := s.post(ctx, ins, nil)
			if err != nil || code != http.StatusOK {
				s.close()
				return nil, fmt.Errorf("wire: preload apply: status %d: %v", code, err)
			}
			cl.live = append(cl.live, ins)
			cl.keys = append(cl.keys, keys)
			cl.reqs = append(cl.reqs, nil)
		}
	}
	want := sz.Clients * sz.Window * sz.Facts
	deadline := time.Now().Add(visTimeout)
	for s.replicaLen(replLocal) != want || s.replicaLen(replRemote) != want {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("wire: preload did not converge: replicas hold %d and %d of %d facts",
				s.replicaLen(replLocal), s.replicaLen(replRemote), want)
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// start brings up both daemons and the replica subscriptions.
func (s *wireSystem) start(ctx context.Context) error {
	// Daemon A first; remote's address is only known once B listens, so
	// A starts with a placeholder that is replaced before any data flows.
	cfgA := &daemon.Config{
		Peers: []daemon.PeerConfig{
			{Name: "hub", Program: wireHub},
			{Name: "local", Program: wireLocal},
		},
		Remotes:       map[string]string{"remote": "127.0.0.1:1"},
		OutboxLimit:   wireQueueLimit,
		MaxPendingOps: wireQueueLimit,
		Admission:     "block",
	}
	a, err := daemon.New(cfgA)
	if err != nil {
		return fmt.Errorf("wire: daemon A: %w", err)
	}
	if err := a.Start(ctx); err != nil {
		return fmt.Errorf("wire: start daemon A: %w", err)
	}
	s.a = a
	cfgB := &daemon.Config{
		Peers:         []daemon.PeerConfig{{Name: "remote", Program: wireRemote}},
		Remotes:       map[string]string{"hub": a.PeerAddr("hub"), "local": a.PeerAddr("local")},
		OutboxLimit:   wireQueueLimit,
		MaxPendingOps: wireQueueLimit,
		Admission:     "block",
	}
	b, err := daemon.New(cfgB)
	if err != nil {
		return fmt.Errorf("wire: daemon B: %w", err)
	}
	if err := b.Start(ctx); err != nil {
		return fmt.Errorf("wire: start daemon B: %w", err)
	}
	s.b = b
	hubEP, ok := a.Peer("hub").Endpoint().(*transport.TCPEndpoint)
	if !ok {
		return fmt.Errorf("wire: hub endpoint is %T, not TCP", a.Peer("hub").Endpoint())
	}
	hubEP.AddPeer("remote", b.PeerAddr("remote"))
	s.baseA, s.baseB = "http://"+a.AdminAddr(), "http://"+b.AdminAddr()

	sctx, cancel := context.WithCancel(ctx)
	s.stopSubs = cancel
	for i, p := range []*peer.Peer{a.Peer("local"), b.Peer("remote")} {
		ch, err := p.Subscribe(sctx, "mirror")
		if err != nil {
			return fmt.Errorf("wire: subscribe %s: %w", p.Name(), err)
		}
		r := &replica{set: make(map[string]bool)}
		s.repl[i] = r
		s.subsWG.Add(1)
		go s.consume(i, r, ch)
	}
	return nil
}

// consume applies one replica's subscription deltas and timestamps
// inserts for the requests waiting on them.
func (s *wireSystem) consume(idx int, r *replica, ch <-chan peer.Delta) {
	defer s.subsWG.Done()
	for d := range ch {
		now := time.Now()
		key := d.Tuple.Key()
		r.mu.Lock()
		if d.Delete {
			delete(r.set, key)
		} else {
			r.set[key] = true
		}
		r.deltas++
		r.mu.Unlock()
		if !d.Delete {
			s.arrived(idx, key, now)
		}
	}
}

func (s *wireSystem) arrived(idx int, key string, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req := s.waiting[key]
	if req == nil || s.seen[key]&(1<<idx) != 0 {
		return
	}
	s.seen[key] |= 1 << idx
	if s.seen[key] == 3 {
		delete(s.waiting, key)
		delete(s.seen, key)
	}
	req.left[idx]--
	if req.left[idx] == 0 {
		req.at[idx] = now
		if req.left[1-idx] == 0 {
			close(req.done)
		}
	}
}

func (s *wireSystem) replicaLen(idx int) int {
	r := s.repl[idx]
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.set)
}

// nextFacts generates one request's inserts: fact strings and the keys of
// their tuples.
func (s *wireSystem) nextFacts(cl *wireClient) (facts, keys []string) {
	for j := 0; j < s.sz.Facts; j++ {
		k := fmt.Sprintf("c%d-%07d-%d", cl.id, cl.seq, j)
		p := payload(cl.rng, s.sz.PayloadBytes)
		f := ast.NewFact("data", "hub", value.Str(k), value.Str(p))
		facts = append(facts, f.String())
		keys = append(keys, value.NewTuple(value.Str(k), value.Str(p)).Key())
		s.xmu.Lock()
		if len(s.samples) < 64 {
			s.samples = append(s.samples, ast.NewFact("mirror", "remote", value.Str(k), value.Str(p)))
		}
		s.xmu.Unlock()
	}
	cl.seq++
	return facts, keys
}

const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func payload(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

type applyBody struct {
	Peer   string   `json:"peer"`
	Insert []string `json:"insert,omitempty"`
	Delete []string `json:"delete,omitempty"`
}

// post sends one /apply request to daemon A and returns its status code.
func (s *wireSystem) post(ctx context.Context, ins, del []string) (int, error) {
	body, err := json.Marshal(applyBody{Peer: "hub", Insert: ins, Delete: del})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.baseA+"/apply", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.httpc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func (s *wireSystem) run(ctx context.Context, d time.Duration, rec *recorder) error {
	deltas0 := s.replicaDeltas()
	t0 := time.Now()
	var wg sync.WaitGroup
	reqs := make([][]*wireRequest, len(s.clients))
	var depthDone chan struct{}
	stopDepth := make(chan struct{})
	if s.tr != nil {
		depthDone = make(chan struct{})
		go s.sampleDepth(stopDepth, depthDone)
	}
	for i, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs[i] = s.clientLoop(ctx, cl, t0, d, rec)
		}()
	}
	wg.Wait()
	close(stopDepth)
	if depthDone != nil {
		<-depthDone
	}

	// Wait for every accepted request to become visible on both replicas.
	var all []*wireRequest
	for _, rs := range reqs {
		all = append(all, rs...)
	}
	deadline := time.Now().Add(visTimeout)
	last := t0
	visible, failed, unobserved := 0, 0, 0
	var firstErr error
	for _, r := range all {
		if !waitDone(r.done, deadline) {
			failed++
			s.mu.Lock()
			unobserved += r.left[0] + r.left[1]
			s.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("wire: request %d not visible on both replicas within %v", r.id, visTimeout)
			}
			continue
		}
		end := r.at[0]
		if r.at[1].After(end) {
			end = r.at[1]
		}
		visible++
		if end.After(last) {
			last = end
		}
		rec.addVisible(end.Sub(r.start))
		wid := s.tr.newID()
		s.tr.add("wait", wid, r.span, r.id, r.applied, end)
		s.tr.add("request", r.span, 0, r.id, r.start, end)
		s.xmu.Lock()
		s.x.visibleLocal = append(s.x.visibleLocal, r.at[replLocal].Sub(r.start))
		s.x.visibleRemote = append(s.x.visibleRemote, r.at[replRemote].Sub(r.start))
		s.xmu.Unlock()
	}
	rec.attempt(0, failed, firstErr)
	s.xmu.Lock()
	s.x.unobserved += unobserved
	s.x.subDeltas += s.replicaDeltas() - deltas0
	s.xmu.Unlock()

	// Throughput: every visible request, over the time until the last
	// one became visible.
	rec.addBatch(visible, last.Sub(t0))
	return nil
}

// waitDone waits until done is closed or the deadline passes, and reports
// whether done was closed.
func waitDone(done <-chan struct{}, deadline time.Time) bool {
	select {
	case <-done:
		return true
	default:
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// clientLoop is one closed-loop client: it sends its next request as soon
// as the previous /apply returns, until d has passed.
func (s *wireSystem) clientLoop(ctx context.Context, cl *wireClient, t0 time.Time, d time.Duration, rec *recorder) []*wireRequest {
	var accepted []*wireRequest
	for time.Since(t0) < d && ctx.Err() == nil {
		// A fact is retracted only once its insert has been seen on both
		// replicas; otherwise a replica that ingests both in one stage
		// would never show the insert.
		if old := cl.reqs[0]; old != nil && !waitDone(old.done, time.Now().Add(visTimeout)) {
			return accepted
		}
		ins, keys := s.nextFacts(cl)
		del := cl.live[0]
		s.mu.Lock()
		s.reqSeq++
		req := &wireRequest{id: s.reqSeq, span: s.tr.newID(), keys: keys, done: make(chan struct{})}
		req.left = [2]int{len(keys), len(keys)}
		for _, k := range keys {
			s.waiting[k] = req
		}
		s.mu.Unlock()
		aid := s.tr.newID()
		req.start = time.Now()
		code, err := s.post(ctx, ins, del)
		req.applied = time.Now()
		s.tr.add("apply", aid, req.span, req.id, req.start, req.applied)
		rec.addApply(req.applied.Sub(req.start))
		s.xmu.Lock()
		s.x.requests++
		s.x.ops++
		if code != http.StatusOK {
			s.x.rejected++
		}
		s.xmu.Unlock()
		if err != nil || code != http.StatusOK {
			s.mu.Lock()
			for _, k := range keys {
				delete(s.waiting, k)
				delete(s.seen, k)
			}
			s.mu.Unlock()
			rec.attempt(1, 1, fmt.Errorf("wire: apply: status %d: %v", code, err))
			continue
		}
		rec.attempt(1, 0, nil)
		cl.live = append(cl.live[1:], ins)
		cl.keys = append(cl.keys[1:], keys)
		cl.reqs = append(cl.reqs[1:], req)
		accepted = append(accepted, req)
	}
	return accepted
}

// sampleDepth records the hub's largest outbox depth while the run lasts.
func (s *wireSystem) sampleDepth(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			n, _ := s.a.Peer("hub").OutboxPending()
			s.xmu.Lock()
			s.x.depthMax = max(s.x.depthMax, n)
			s.xmu.Unlock()
		}
	}
}

// verify checks that data@hub, both mirrors and both subscription
// replicas equal the clients' live windows.
func (s *wireSystem) verify(ctx context.Context) error {
	want := make(map[string]bool)
	for _, cl := range s.clients {
		for _, ks := range cl.keys {
			for _, k := range ks {
				want[k] = true
			}
		}
	}
	// The replicas converge asynchronously after the last request's
	// deletes; give the retractions time to land.
	deadline := time.Now().Add(s.settle)
	for {
		err := s.compare(want)
		if err == nil || time.Now().After(deadline) || ctx.Err() != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *wireSystem) compare(want map[string]bool) error {
	for _, c := range []struct {
		label string
		p     *peer.Peer
		rel   string
	}{
		{"data@hub", s.a.Peer("hub"), "data"},
		{"mirror@local", s.a.Peer("local"), "mirror"},
		{"mirror@remote", s.b.Peer("remote"), "mirror"},
	} {
		if err := sameSet(c.p.Query(c.rel), want); err != nil {
			return fmt.Errorf("wire: %s: %w", c.label, err)
		}
	}
	for i, label := range []string{"local", "remote"} {
		r := s.repl[i]
		r.mu.Lock()
		n, extra := len(r.set), ""
		for k := range r.set {
			if !want[k] {
				extra = k
				break
			}
		}
		r.mu.Unlock()
		if extra != "" || n != len(want) {
			return fmt.Errorf("wire: %s subscription replica holds %d tuples (want %d), unexpected %.40q", label, n, len(want), extra)
		}
	}
	return nil
}

func (s *wireSystem) peers() []*peer.Peer {
	return []*peer.Peer{s.a.Peer("hub"), s.a.Peer("local"), s.b.Peer("remote")}
}

func (s *wireSystem) facts() int {
	var sn snap
	sn.readPeers(s.peers())
	return sn.facts
}

func (s *wireSystem) read(ctx context.Context, sn *snap) error {
	sn.readPeers(s.peers())
	sn.prom = make(map[string]float64)
	for _, base := range []string{s.baseA, s.baseB} {
		m, err := scrapeSums(ctx, s.httpc, base)
		if err != nil {
			return err
		}
		mergeSums(sn.prom, m)
	}
	return nil
}

func (s *wireSystem) replicaDeltas() int {
	n := 0
	for _, r := range s.repl {
		r.mu.Lock()
		n += r.deltas
		r.mu.Unlock()
	}
	return n
}

func (s *wireSystem) observed() *extras {
	s.xmu.Lock()
	defer s.xmu.Unlock()
	x := s.x
	return &x
}

func (s *wireSystem) sampleFacts() []ast.Fact { return s.samples }

func (s *wireSystem) close() {
	if s.stopSubs != nil {
		s.stopSubs()
	}
	if s.a != nil {
		s.a.Close()
	}
	if s.b != nil {
		s.b.Close()
	}
	s.subsWG.Wait()
	s.httpc.CloseIdleConnections()
}
