package engine

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// Compiled rule execution, compiler half (the runtime types live in
// exec.go).
//
// compileExec analyzes one (rule, stage kind, delta position) triple under
// the plan order the stage chose and emits the closure chain, or nil when
// the rule must stay on the interpreter. The analysis simulates the walk's
// binding state: with the order fixed, which slots are bound when each atom
// runs is known statically, so every argument term compiles to exactly one
// action — a probe-key part (constants and bound slots, guaranteed by the
// index bucket), a slot binding (free first occurrence), or an equality
// check (a repeat within the atom) — and the interpreter's per-tuple
// bound[] bookkeeping disappears.
//
// Rules fall back to the interpreter (cached nil) when any body atom could
// leave the local peer — a variable peer or relation term, a remote
// constant peer (delegation), a non-string name constant — or when a
// builtin is unknown or mis-used (the interpreter owns the error
// reporting). Relations unresolved at compile time stay compilable: an
// undeclared local relation is empty for the whole stage (intensional heads
// must be pre-declared, and auto-declared extensional heads only buffer
// updates for the next stage), so those atoms compile to constant dead or
// pass steps.

// compileBlocker reports why a rule cannot be compiled, or "" when it can.
// It is the quick structural half of the analysis (shared with Explain);
// compileExec can still fall back on deeper per-order checks.
func (e *Engine) compileBlocker(cr *CompiledRule) string {
	for i := range cr.Body {
		a := &cr.Body[i]
		if a.peer.isVar {
			return fmt.Sprintf("body atom %d: variable peer term (may delegate)", i+1)
		}
		if a.peer.val.Kind() != value.KindString {
			return fmt.Sprintf("body atom %d: non-string peer term", i+1)
		}
		pn := a.peer.val.StringVal()
		if pn == BuiltinPeer {
			if a.rel.isVar || a.rel.val.Kind() != value.KindString {
				return fmt.Sprintf("body atom %d: builtin predicate is not a constant", i+1)
			}
			rn := a.rel.val.StringVal()
			if want, ok := builtinArity[rn]; !ok || want != len(a.args) {
				return fmt.Sprintf("body atom %d: unknown or mis-used builtin %q", i+1, rn)
			}
			continue
		}
		if pn != e.local {
			return fmt.Sprintf("body atom %d: remote peer %q (delegation boundary)", i+1, pn)
		}
		if a.rel.isVar {
			return fmt.Sprintf("body atom %d: variable relation term", i+1)
		}
		if a.rel.val.Kind() != value.KindString {
			return fmt.Sprintf("body atom %d: non-string relation term", i+1)
		}
	}
	return ""
}

// Builtin comparison op codes (see builtin.go for the predicate semantics).
const (
	biLt uint8 = iota
	biLe
	biGt
	biGe
	biEq
	biNeq
)

func builtinOpCodeFor(name string) (uint8, bool) {
	switch name {
	case "lt":
		return biLt, true
	case "le":
		return biLe, true
	case "gt":
		return biGt, true
	case "ge":
		return biGe, true
	case "eq":
		return biEq, true
	case "neq":
		return biNeq, true
	}
	return 0, false
}

// stepSpec shapes (stepSpec.sKind).
const (
	specProbe   uint8 = iota // positive atom: keyed probe of a relation
	specDelta                // positive atom at the delta position
	specBuiltin              // builtin comparison filter
	specNeg                  // negated atom: keyed membership test
	specDead                 // positive atom that can never match (nil/mis-arity relation)
	specPass                 // negated atom that always passes (nil/mis-arity relation)
)

// stepSpec is the compile-time analysis of one plan step.
type stepSpec struct {
	pos   int
	sKind uint8

	rel   *store.Relation
	relID string
	arity int // relation arity for probes, len(args) for delta steps
	mask  store.ColMask
	// member marks a probe with every column bound: a membership test on
	// the primary tuple map, no index needed.
	member bool
	parts  []keyPart
	// probeActs run against tuples an index bucket (or ghost bucket)
	// yields: binds and repeat checks only — masked columns are key-equal
	// by construction. scanActs additionally re-check constants and bound
	// slots, for tuples from unkeyed sources (the delta).
	probeActs []argAct
	scanActs  []argAct
	binds     []argAct // the actBind subset, for fused-batch rebinding

	// builtin fields
	biOp     uint8
	biNegate bool
	biL, biR termRef
}

// buildActs fills mask/parts/acts from the atom's argument terms under the
// compile-time binding state.
func (sp *stepSpec) buildActs(a *cAtom, bound []bool) {
	seen := map[int]bool{}
	for k, arg := range a.args {
		switch {
		case !arg.isVar:
			sp.mask |= 1 << uint(k)
			sp.parts = append(sp.parts, keyPart{val: arg.val})
			sp.scanActs = append(sp.scanActs, argAct{op: actCheckConst, col: k, val: arg.val})
		case bound[arg.slot]:
			sp.mask |= 1 << uint(k)
			sp.parts = append(sp.parts, keyPart{isVar: true, slot: arg.slot})
			sp.scanActs = append(sp.scanActs, argAct{op: actCheckSlot, slot: arg.slot, col: k})
		case seen[arg.slot]:
			act := argAct{op: actCheckSlot, slot: arg.slot, col: k}
			sp.probeActs = append(sp.probeActs, act)
			sp.scanActs = append(sp.scanActs, act)
		default:
			seen[arg.slot] = true
			act := argAct{op: actBind, slot: arg.slot, col: k}
			sp.probeActs = append(sp.probeActs, act)
			sp.scanActs = append(sp.scanActs, act)
			sp.binds = append(sp.binds, act)
		}
	}
}

// analyzeStep classifies body position pos under the current binding state.
// The bool result is false when the step cannot be compiled (fall back to
// the interpreter for the whole rule).
func (e *Engine) analyzeStep(cr *CompiledRule, pos int, kind stageKind, deltaPos int, bound []bool) (stepSpec, bool) {
	a := &cr.Body[pos]
	sp := stepSpec{pos: pos}
	pn := a.peer.val.StringVal() // constant strings guaranteed by compileBlocker
	rn := a.rel.val.StringVal()
	if pn == BuiltinPeer {
		code, ok := builtinOpCodeFor(rn)
		if !ok || len(a.args) != 2 {
			return sp, false
		}
		for _, t := range a.args {
			if t.isVar && !bound[t.slot] {
				return sp, false // unsafe placement; interpreter reports it
			}
		}
		sp.sKind = specBuiltin
		sp.biOp = code
		sp.biNegate = a.neg
		sp.biL, sp.biR = a.args[0], a.args[1]
		return sp, true
	}
	sp.relID = a.relID
	rel := e.db.Get(rn, pn)
	if a.neg {
		if rel == nil || rel.Schema().Arity() != len(a.args) {
			sp.sKind = specPass
			return sp, true
		}
		for _, arg := range a.args {
			if arg.isVar && !bound[arg.slot] {
				return sp, false // unsafe negation; interpreter's problem
			}
		}
		sp.sKind = specNeg
		sp.rel = rel
		for _, arg := range a.args {
			if arg.isVar {
				sp.parts = append(sp.parts, keyPart{isVar: true, slot: arg.slot})
			} else {
				sp.parts = append(sp.parts, keyPart{val: arg.val})
			}
		}
		return sp, true
	}
	if pos == deltaPos && kind != kindMatch {
		sp.sKind = specDelta
		sp.arity = len(a.args)
		sp.buildActs(a, bound)
		return sp, true
	}
	if rel == nil || rel.Schema().Arity() != len(a.args) {
		sp.sKind = specDead
		return sp, true
	}
	sp.sKind = specProbe
	sp.rel = rel
	sp.arity = rel.Schema().Arity()
	sp.buildActs(a, bound)
	sp.member = sp.arity > 0 && sp.mask == (store.ColMask(1)<<uint(sp.arity))-1
	return sp, true
}

// compileExec compiles one (rule, stage kind, delta position) walk under
// the given plan order (nil = written order) into a closure-chain program,
// or nil when the rule must interpret. Called through the stage's
// compiledFor cache.
func (e *Engine) compileExec(cr *CompiledRule, kind stageKind, deltaPos int, ord []int) *execProg {
	if e.compileBlocker(cr) != "" {
		return nil
	}
	order := ord
	if order == nil {
		order = make([]int, len(cr.Body))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(cr.Body) {
		return nil
	}
	// Forward pass: simulate the binding state the fixed order produces and
	// analyze every step against it.
	bound := make([]bool, cr.NumSlots)
	if kind == kindMatch {
		markAtomSlots(&cr.Head, bound)
	}
	specs := make([]stepSpec, len(order))
	for s, i := range order {
		sp, ok := e.analyzeStep(cr, i, kind, deltaPos, bound)
		if !ok {
			return nil
		}
		specs[s] = sp
		if sp.sKind == specProbe || sp.sKind == specDelta || sp.sKind == specDead {
			for _, arg := range cr.Body[i].args {
				if arg.isVar {
					bound[arg.slot] = true
				}
			}
		}
	}
	// Backward pass: link the chain terminal-first so each step closure
	// captures its continuation.
	p := &execProg{kind: kind, deltaPos: deltaPos}
	if kind != kindMatch {
		p.ctx.env = make([]value.Value, cr.NumSlots)
	}
	next := e.compileTerminal(cr, kind, p)
	// Fuse the delta scan with an immediately following keyed probe into a
	// batch step: one lock acquisition and index resolve for the whole
	// frontier instead of one per frontier tuple.
	fuse := kind != kindMatch && len(specs) >= 2 &&
		specs[0].sKind == specDelta &&
		specs[1].sKind == specProbe && specs[1].mask != 0 && !specs[1].member
	lo := 0
	if fuse {
		lo = 2
	}
	for s := len(specs) - 1; s >= lo; s-- {
		next = compileStep(&specs[s], kind, p, next)
	}
	if fuse {
		next = compileFusedDelta(&specs[0], &specs[1], kind, p, next)
	}
	p.entry = next
	return p
}

// compileTerminal builds the full-match action: produce (with a fast path
// for statically local intensional heads), over-delete, or found.
func (e *Engine) compileTerminal(cr *CompiledRule, kind stageKind, p *execProg) stepFn {
	x := &p.ctx
	switch kind {
	case kindMatch:
		return func() { x.found = true }
	case kindDRed:
		return func() { x.e.produceDelete(cr, x.env, x.st) }
	}
	h := &cr.Head
	if cr.Rule.Op == ast.Derive && !h.rel.isVar && !h.peer.isVar &&
		h.rel.val.Kind() == value.KindString && h.peer.val.Kind() == value.KindString &&
		h.peer.val.StringVal() == e.local {
		rn := h.rel.val.StringVal()
		if rel := e.db.Get(rn, e.local); rel != nil && rel.Kind() == ast.Intensional &&
			rel.Schema().Arity() == len(h.args) {
			relID := rn + "@" + e.local
			args := h.args
			return func() {
				t := make(value.Tuple, len(args))
				for k, arg := range args {
					if arg.isVar {
						t[k] = x.env[arg.slot]
					} else {
						t[k] = arg.val
					}
				}
				x.e.deriveLocal(x.st, rel, relID, t)
			}
		}
	}
	return func() { x.e.produce(cr, x.env, x.st) }
}

// compileStep builds one body step's closure around its continuation.
func compileStep(sp *stepSpec, kind stageKind, p *execProg, next stepFn) stepFn {
	x := &p.ctx
	switch sp.sKind {
	case specDead:
		return func() {}
	case specPass:
		return next
	case specBuiltin:
		l, r := sp.biL, sp.biR
		opc, negate := sp.biOp, sp.biNegate
		return func() {
			lv := l.val
			if l.isVar {
				lv = x.env[l.slot]
			}
			rv := r.val
			if r.isVar {
				rv = x.env[r.slot]
			}
			c := lv.Compare(rv)
			var holds bool
			switch opc {
			case biLt:
				holds = c < 0
			case biLe:
				holds = c <= 0
			case biGt:
				holds = c > 0
			case biGe:
				holds = c >= 0
			case biEq:
				holds = c == 0
			default:
				holds = c != 0
			}
			if holds != negate {
				next()
			}
		}
	case specNeg:
		rel, parts := sp.rel, sp.parts
		return func() {
			base := len(x.key)
			x.key = appendKeyParts(x, x.key, parts)
			contains := rel.ContainsKey(x.key[base:])
			x.key = x.key[:base]
			if !contains {
				next()
			}
		}
	case specDelta:
		relID, arity := sp.relID, sp.arity
		unify := compileActs(sp.scanActs)
		return func() {
			for _, t := range x.delta[relID] {
				if len(t) == arity && unify(x, t) {
					next()
				}
			}
		}
	}
	// specProbe.
	rel, relID, arity := sp.rel, sp.relID, sp.arity
	mask, parts := sp.mask, sp.parts
	unify := compileActs(sp.probeActs)
	var cb func(value.Tuple) bool
	if kind == kindMatch {
		cb = func(t value.Tuple) bool {
			if len(t) == arity && unify(x, t) {
				next()
			}
			return !x.found // stop the bucket walk once satisfied
		}
	} else {
		cb = func(t value.Tuple) bool {
			if len(t) == arity && unify(x, t) {
				next()
			}
			return true
		}
	}
	if sp.member {
		if kind == kindDRed {
			return func() {
				base := len(x.key)
				x.key = appendKeyParts(x, x.key, parts)
				key := x.key[base:]
				if rel.ContainsKey(key) {
					next()
				}
				// The pre-deletion database includes this stage's ghosts.
				x.st.incr.sweepGhostsKey(relID, mask, key, func(t value.Tuple) { cb(t) })
				x.key = x.key[:base]
			}
		}
		return func() {
			base := len(x.key)
			x.key = appendKeyParts(x, x.key, parts)
			contains := rel.ContainsKey(x.key[base:])
			x.key = x.key[:base]
			if contains {
				next()
			}
		}
	}
	if kind == kindDRed {
		gcb := func(t value.Tuple) { cb(t) }
		return func() {
			base := len(x.key)
			x.key = appendKeyParts(x, x.key, parts)
			key := x.key[base:]
			rel.Probe(mask, key, cb)
			x.st.incr.sweepGhostsKey(relID, mask, key, gcb)
			x.key = x.key[:base]
		}
	}
	return func() {
		base := len(x.key)
		x.key = appendKeyParts(x, x.key, parts)
		rel.Probe(mask, x.key[base:], cb)
		x.key = x.key[:base]
	}
}

// compileFusedDelta builds the batch (vector-at-a-time) delta step: pass 1
// unifies every frontier tuple against the delta atom and encodes the
// following probe's key into a shared arena; pass 2 resolves every key's
// bucket under one lock (store.ProbeBatch) and continues the chain per
// match, rebinding the delta atom's slots from the owning frontier tuple.
// For DRed walks the probe's ghost buckets are swept per frontier tuple
// afterwards — order against the relation matches is irrelevant, both
// produce and produceDelete deduplicate.
func compileFusedDelta(da, pb *stepSpec, kind stageKind, p *execProg, next stepFn) stepFn {
	x := &p.ctx
	deltaID, arityA, rebinds := da.relID, da.arity, da.binds
	relB, relIDB, maskB, partsB, arityB := pb.rel, pb.relID, pb.mask, pb.parts, pb.arity
	unifyA, runB := compileActs(da.scanActs), compileActs(pb.probeActs)
	dred := kind == kindDRed
	var (
		arena   []byte
		offs    []int
		src     []int
		keys    [][]byte
		scratch [][]value.Tuple
		ts      []value.Tuple
	)
	unifyB := func(t value.Tuple) {
		if len(t) == arityB && runB(x, t) {
			next()
		}
	}
	cb := func(j int, t value.Tuple) bool {
		ta := ts[src[j]]
		for _, b := range rebinds {
			x.env[b.slot] = ta[b.col]
		}
		unifyB(t)
		return true
	}
	return func() {
		ts = x.delta[deltaID]
		if len(ts) == 0 {
			return
		}
		arena, offs, src = arena[:0], offs[:0], src[:0]
		for i, t := range ts {
			if len(t) != arityA || !unifyA(x, t) {
				continue
			}
			start := len(arena)
			arena = appendKeyParts(x, arena, partsB)
			offs = append(offs, start, len(arena))
			src = append(src, i)
		}
		if len(src) > 0 {
			keys = keys[:0]
			for j := range src {
				keys = append(keys, arena[offs[2*j]:offs[2*j+1]])
			}
			scratch = relB.ProbeBatch(maskB, keys, scratch, cb)
			if dred {
				ic := x.st.incr
				for j := range src {
					ta := ts[src[j]]
					for _, b := range rebinds {
						x.env[b.slot] = ta[b.col]
					}
					ic.sweepGhostsKey(relIDB, maskB, keys[j], unifyB)
				}
			}
		}
		ts = nil
	}
}
