package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/value"
)

// feed: the Wepic follower graph at population scale. Every peer is an
// author with a post relation and a feed; every follow edge is one push
// rule at the author, feed@f("a",$i) :- post@a($i). One op is one author
// posting a new item and retracting its oldest, so every view keeps its
// size; a round is Round ops followed by RunToQuiescence.

type feedSizes struct {
	Peers, Follows, Posts, PostBytes, Round int
}

var feedFull = feedSizes{Peers: 200, Follows: 8, Posts: 64, PostBytes: 128, Round: 20}

type feedOp struct {
	author   int
	add, old string
}

type feedSystem struct {
	loop
	sz    feedSizes
	plan  *rand.Rand // op generator, seeded apart from the graph
	mux   *transport.Mux
	reg   *metrics.Registry
	in    *value.Interner
	tally *transportTally
	names []string
	// followers maps author -> follower indices; window holds each
	// author's current posts, oldest first: the model the checks compare
	// the program's feeds against.
	followers [][]int
	window    [][]string
	posted    int
}

func feedName(i int) string { return fmt.Sprintf("p%04d", i) }

// feedPost pads a post id to the payload size.
func (s *feedSystem) feedPost(author int) string {
	id := fmt.Sprintf("%s-%07d-", feedName(author), s.posted)
	s.posted++
	if len(id) < s.sz.PostBytes {
		id += strings.Repeat("x", s.sz.PostBytes-len(id))
	}
	return id
}

func postFact(author, id string) ast.Fact {
	return ast.NewFact("post", author, value.Str(id))
}

func buildFeed(ctx context.Context, sz feedSizes, seed int64, tr *tracer) (system, error) {
	if sz.Follows >= sz.Peers {
		return nil, fmt.Errorf("feed: %d follows needs more than %d peers", sz.Follows, sz.Peers)
	}
	s := &feedSystem{
		loop: loop{
			name:      "feed",
			net:       peer.NewNetwork(),
			tr:        tr,
			maxRounds: max(1000, 50*(sz.Follows+2)),
		},
		sz:        sz,
		plan:      rand.New(rand.NewSource(seed ^ 0x5eed)),
		mux:       transport.NewMux(),
		reg:       metrics.NewRegistry(),
		in:        value.NewInterner(),
		tally:     &transportTally{},
		followers: make([][]int, sz.Peers),
		window:    make([][]string, sz.Peers),
	}
	s.next = s.nextRound
	peer.RegisterNetworkMetrics(s.reg, s.net)
	graph := rand.New(rand.NewSource(seed))
	for f := 0; f < sz.Peers; f++ {
		seen := map[int]bool{f: true}
		for len(seen) < sz.Follows+1 {
			a := graph.Intn(sz.Peers)
			if !seen[a] {
				seen[a] = true
				s.followers[a] = append(s.followers[a], f)
			}
		}
	}
	// The swarm configuration: stages emit synchronously (no per-peer
	// flusher goroutines) and periodic anti-entropy is off.
	cfg := peer.Config{SyncEmit: true, ResyncInterval: -1, Interner: s.in, Metrics: s.reg}
	for i := 0; i < sz.Peers; i++ {
		cfg.Name = feedName(i)
		var ep transport.Endpoint = s.mux.Endpoint(cfg.Name)
		if tr != nil {
			ep = &tracedEndpoint{inner: s.mux.Endpoint(cfg.Name), tr: tr, tally: s.tally}
		}
		p, err := peer.New(cfg, ep)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("feed: peer %s: %w", cfg.Name, err)
		}
		s.net.Add(p)
		s.peers = append(s.peers, p)
		s.names = append(s.names, cfg.Name)
		if err := p.DeclareRelation("post", ast.Extensional, "id"); err != nil {
			s.close()
			return nil, err
		}
		if err := p.DeclareRelation("feed", ast.Intensional, "author", "id"); err != nil {
			s.close()
			return nil, err
		}
	}
	for a, fs := range s.followers {
		for _, f := range fs {
			rule := fmt.Sprintf(`feed@%s("%s", $i) :- post@%s($i);`, s.names[f], s.names[a], s.names[a])
			if _, err := s.peers[a].AddRule(rule); err != nil {
				s.close()
				return nil, fmt.Errorf("feed: rule %s->%s: %w", s.names[a], s.names[f], err)
			}
		}
	}
	for a, p := range s.peers {
		b := engine.NewBatch()
		for k := 0; k < sz.Posts; k++ {
			id := s.feedPost(a)
			s.window[a] = append(s.window[a], id)
			b.Insert(postFact(s.names[a], id))
		}
		if err := p.Apply(ctx, b); err != nil {
			s.close()
			return nil, fmt.Errorf("feed: seed posts: %w", err)
		}
	}
	if _, _, err := s.net.RunToQuiescence(ctx, s.maxRounds); err != nil {
		s.close()
		return nil, fmt.Errorf("feed: initial convergence: %w", err)
	}
	return s, nil
}

// nextRound plans one round: each op has a seeded author post a new item
// and retract its oldest, and is checked at the author's followers. The
// ops are generated up front so that an op's timed call is only its
// Peer.Apply.
func (s *feedSystem) nextRound(ctx context.Context) (int, func(int) error, func(int) error) {
	ops := make([]feedOp, s.sz.Round)
	batches := make([]*engine.Batch, len(ops))
	for i := range ops {
		a := s.plan.Intn(s.sz.Peers)
		op := feedOp{author: a, add: s.feedPost(a), old: s.window[a][0]}
		s.window[a] = append(s.window[a][1:], op.add)
		ops[i] = op
		name := s.names[a]
		batches[i] = engine.NewBatch().Insert(postFact(name, op.add)).Delete(postFact(name, op.old))
		if len(s.samples) < 64 {
			s.samples = append(s.samples, postFact(name, op.add), feedFact(s.names[0], name, op.add))
		}
	}
	issue := func(i int) error { return s.peers[ops[i].author].Apply(ctx, batches[i]) }
	return len(ops), issue, func(i int) error { return s.checkOp(ops[i]) }
}

func feedFact(follower, author, id string) ast.Fact {
	return ast.NewFact("feed", follower, value.Str(author), value.Str(id))
}

// checkOp verifies that every follower of the op's author sees the new
// post (unless later ops of the round already pushed it out of the
// window) and no longer sees the retracted one; post ids are never reused.
func (s *feedSystem) checkOp(op feedOp) error {
	author := s.names[op.author]
	for _, f := range s.followers[op.author] {
		rel := s.peers[f].Store().Get("feed", s.names[f])
		if rel == nil {
			return fmt.Errorf("feed: %s has no feed relation", s.names[f])
		}
		if s.inWindow(op.author, op.add) && !rel.Contains(value.NewTuple(value.Str(author), value.Str(op.add))) {
			return fmt.Errorf("feed: %s misses post %.24s of %s", s.names[f], op.add, author)
		}
		if rel.Contains(value.NewTuple(value.Str(author), value.Str(op.old))) {
			return fmt.Errorf("feed: %s still holds retracted post %.24s of %s", s.names[f], op.old, author)
		}
	}
	return nil
}

func (s *feedSystem) inWindow(a int, id string) bool {
	for _, w := range s.window[a] {
		if w == id {
			return true
		}
	}
	return false
}

// verify checks that every follower's feed equals the union of its
// authors' current windows, and every author's posts equal its window.
func (s *feedSystem) verify(context.Context) error {
	want := make([]map[string]bool, s.sz.Peers)
	for i := range want {
		want[i] = make(map[string]bool)
	}
	for a, fs := range s.followers {
		for _, f := range fs {
			for _, id := range s.window[a] {
				want[f][value.NewTuple(value.Str(s.names[a]), value.Str(id)).Key()] = true
			}
		}
	}
	for i, p := range s.peers {
		if err := sameSet(p.Query("feed"), want[i]); err != nil {
			return fmt.Errorf("feed: feed@%s: %w", s.names[i], err)
		}
		posts := make(map[string]bool, len(s.window[i]))
		for _, id := range s.window[i] {
			posts[value.NewTuple(value.Str(id)).Key()] = true
		}
		if err := sameSet(p.Query("post"), posts); err != nil {
			return fmt.Errorf("feed: post@%s: %w", s.names[i], err)
		}
	}
	return nil
}

// sameSet compares a relation's tuples with the expected tuple keys.
func sameSet(got []value.Tuple, want map[string]bool) error {
	seen := 0
	for _, t := range got {
		if !want[t.Key()] {
			return fmt.Errorf("unexpected tuple %.60s", t.String())
		}
		seen++
	}
	if seen != len(want) {
		return fmt.Errorf("%d tuples, want %d", seen, len(want))
	}
	return nil
}

func (s *feedSystem) read(_ context.Context, sn *snap) error {
	sn.readPeers(s.peers)
	prom, err := registrySums(s.reg)
	if err != nil {
		return err
	}
	sn.prom = prom
	sn.schedScans = s.net.SchedulerScans()
	sn.transport = s.tally.read()
	st := s.in.Stats()
	sn.internStrings, sn.internTuples = st.Strings, st.Tuples
	return nil
}

func (s *feedSystem) close() {
	for _, p := range s.peers {
		p.Close()
	}
	s.mux.Close()
}
