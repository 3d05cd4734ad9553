package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/peer"
)

// loop is the closed loop the in-process workloads (feed and wepic) share:
// a round issues its ops one by one, runs the network to quiescence, and
// then checks every op's effect. The workload plans each round through
// next; loop supplies the system's run, observed, facts and sampleFacts.
type loop struct {
	name      string
	net       *peer.Network
	tr        *tracer
	maxRounds int
	peers     []*peer.Peer
	// next plans one round: its op count, how to issue op i, and how to
	// check op i once the round has quiesced.
	next    func(ctx context.Context) (n int, issue, check func(i int) error)
	x       extras
	samples []ast.Fact
}

func (l *loop) run(ctx context.Context, d time.Duration, rec *recorder) error {
	for rec.elapsed() < d {
		n, issue, check := l.next(ctx)
		l.round(ctx, rec, n, issue, check)
	}
	return nil
}

func (l *loop) round(ctx context.Context, rec *recorder, n int, issue, check func(i int) error) {
	issued := make([]time.Time, n)
	failed := make([]bool, n)
	roundID := l.tr.newID()
	start := time.Now()
	for i := range n {
		id := l.tr.newID()
		issued[i] = time.Now()
		err := issue(i)
		done := time.Now()
		l.tr.add("apply", id, roundID, int64(l.x.ops+i), issued[i], done)
		rec.addApply(done.Sub(issued[i]))
		if err != nil {
			failed[i] = true
			rec.attempt(0, 0, fmt.Errorf("%s: op: %w", l.name, err))
		}
	}
	qid := l.tr.newID()
	if l.tr != nil {
		l.tr.quiesce.Store(qid)
	}
	qStart := time.Now()
	rounds, stages, err := l.net.RunToQuiescence(ctx, l.maxRounds)
	end := time.Now()
	l.tr.add("quiesce", qid, roundID, -1, qStart, end)
	l.tr.add("round", roundID, 0, -1, start, end)
	if err != nil {
		rec.attempt(n, n, fmt.Errorf("%s: quiescence: %w", l.name, err))
		rec.addBatch(0, end.Sub(start)) // the time still counts: the run ends
		return
	}
	rec.addBatch(n, end.Sub(start))
	l.x.ops += n
	l.x.rounds++
	l.x.schedRounds += rounds
	l.x.schedStages += stages
	l.x.roundTime += end.Sub(qStart)
	nfail := 0
	var firstErr error
	for i := range n {
		rec.addVisible(end.Sub(issued[i]))
		if !failed[i] {
			if err := check(i); err != nil {
				failed[i] = true
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if failed[i] {
			nfail++
		}
	}
	rec.attempt(n, nfail, firstErr)
}

func (l *loop) observed() *extras { return &l.x }

func (l *loop) sampleFacts() []ast.Fact { return l.samples }

func (l *loop) facts() int {
	var sn snap
	sn.readPeers(l.peers)
	return sn.facts
}
