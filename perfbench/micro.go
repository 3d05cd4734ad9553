package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/protocol"
)

// Layer timings the benchmark takes itself, outside the running system:
// the parser over the run's own fact strings, and the gob codec over
// DataMsg frames shaped like the run's outbox messages.

// microBudget is how long each timing loop runs.
const microBudget = 200 * time.Millisecond

// parseFactUS times parser.ParseFact over srcs and returns µs per fact.
func parseFactUS(srcs []string) (float64, error) {
	if len(srcs) == 0 {
		return 0, nil
	}
	n := 0
	start := time.Now()
	for time.Since(start) < microBudget {
		for _, src := range srcs {
			if _, err := parser.ParseFact(src); err != nil {
				return 0, fmt.Errorf("parse %q: %w", src, err)
			}
		}
		n += len(srcs)
	}
	return float64(time.Since(start).Microseconds()) / float64(n), nil
}

// codecCost times protocol.Encode and protocol.DecodeEnvelope on a DataMsg
// carrying factsPerMsg of the sample facts, and reports µs per encode and
// per decode, the frame size and the allocations per encode+decode.
func codecCost(samples []ast.Fact, factsPerMsg float64) (enc, dec, size, allocs float64, err error) {
	if len(samples) == 0 {
		return 0, 0, 0, 0, nil
	}
	k := max(1, int(math.Round(factsPerMsg)))
	var fm protocol.FactsMsg
	for i := 0; i < k; i++ {
		fm.Append(false, samples[i%len(samples)])
	}
	env := protocol.Envelope{From: "sender", To: samples[0].Peer, Seq: 1,
		Msg: protocol.DataMsg{Epoch: 1, Seq: 1, Msg: fm}}
	frame, err := protocol.Encode(env)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	start := time.Now()
	for time.Since(start) < microBudget {
		if _, err := protocol.Encode(env); err != nil {
			return 0, 0, 0, 0, err
		}
		n++
	}
	encDur := time.Since(start)
	runtime.ReadMemStats(&m1)
	start = time.Now()
	m := 0
	for time.Since(start) < microBudget {
		if _, err := protocol.DecodeEnvelope(frame); err != nil {
			return 0, 0, 0, 0, err
		}
		m++
	}
	decDur := time.Since(start)
	runtime.ReadMemStats(&m2)
	enc = float64(encDur.Nanoseconds()) / 1e3 / float64(n)
	dec = float64(decDur.Nanoseconds()) / 1e3 / float64(m)
	// One hop encodes and decodes once: report the pair's allocations.
	allocs = float64(m1.Mallocs-m0.Mallocs)/float64(n) + float64(m2.Mallocs-m1.Mallocs)/float64(m)
	return enc, dec, float64(len(frame)), allocs, nil
}
