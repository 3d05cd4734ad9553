package engine

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// deltaSet holds, per relation id ("name@peer"), the tuples newly derived
// in the previous fixpoint iteration.
type deltaSet map[string][]value.Tuple

// maxCollectedErrors bounds Result.Errors so a pathological program cannot
// exhaust memory with repeated runtime complaints.
const maxCollectedErrors = 100

type stageState struct {
	out         *Result
	updatesSeen map[string]bool
	remoteSeen  map[string]bool
	delegSeen   map[string]bool
	delta       deltaSet
	supports    []ast.Fact // ground body atoms on the current evaluation path
	errCount    int
	// planner holds the stage's join-plan cache (plan.go); nil means
	// written-order evaluation (Options.Planner off).
	planner *stagePlanner
	// incr is non-nil during RunStageIncremental: produce() additionally
	// maintains the net view-delta bookkeeping (incremental.go).
	incr *incrState
	// rv is the caller's maintained remote view during RunStageIncremental:
	// remote-view derivations are checked against it, not emitted.
	rv *RemoteView
	// events is the side set of Derive facts event rules emitted for remote
	// peers, by destination and fact key: the emissions the remote view
	// reconciles fact by fact (RemoteView.advance, reconcile).
	events map[string]map[string]ast.Fact
}

func newStageState() *stageState {
	return &stageState{
		out: &Result{
			Remote:      map[string][]FactOp{},
			Delegations: map[string]map[string][]ast.Rule{},
		},
		updatesSeen: map[string]bool{},
		remoteSeen:  map[string]bool{},
		delegSeen:   map[string]bool{},
		delta:       deltaSet{},
	}
}

func (st *stageState) errf(format string, args ...any) {
	st.errCount++
	if st.errCount == maxCollectedErrors {
		st.out.Errors = append(st.out.Errors, fmt.Errorf("engine: too many runtime errors; suppressing the rest"))
		return
	}
	if st.errCount > maxCollectedErrors {
		return
	}
	st.out.Errors = append(st.out.Errors, fmt.Errorf(format, args...))
}

// RunStage evaluates the program to fixpoint against the current store
// contents and returns the stage outputs. Local intensional relations are
// mutated (facts derived into them); everything else is returned in Result
// for the peer to apply or transmit.
func (e *Engine) RunStage(prog *Program) *Result {
	return e.runStage(prog).out
}

func (e *Engine) runStage(prog *Program) *stageState {
	st := newStageState()
	st.planner = e.newPlanner()
	for _, stratum := range prog.Strata {
		if len(stratum) == 0 {
			continue
		}
		if e.opts.SemiNaive {
			e.runStratumSemiNaive(stratum, st)
		} else {
			e.runStratumNaive(stratum, st)
		}
	}
	return st
}

func (e *Engine) runStratumSemiNaive(stratum []*CompiledRule, st *stageState) {
	// Iteration 0: full evaluation of every rule in the stratum.
	st.delta = deltaSet{}
	for _, cr := range stratum {
		e.evalRule(cr, st, -1, nil)
	}
	st.out.Iterations++
	// Delta iterations: re-evaluate each rule once per positive body
	// position, restricting that position to the previous iteration's new
	// facts. Any derivation that uses at least one new fact is found at the
	// position of (one of) its new supports.
	for iter := 0; len(st.delta) > 0; iter++ {
		if st.out.Iterations >= e.opts.MaxIterations {
			st.errf("engine: fixpoint exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
			return
		}
		prev := st.delta
		st.delta = deltaSet{}
		for _, cr := range stratum {
			for j := range cr.Body {
				a := &cr.Body[j]
				if a.neg {
					continue
				}
				// Skip the pass when atom j's relation is statically known
				// and received no new facts last iteration: the pass could
				// only rediscover derivations already found, at the price of
				// fully scanning every atom before j.
				if a.relID != "" && len(prev[a.relID]) == 0 {
					continue
				}
				e.evalRule(cr, st, j, prev)
			}
		}
		st.out.Iterations++
	}
}

func (e *Engine) runStratumNaive(stratum []*CompiledRule, st *stageState) {
	for {
		if st.out.Iterations >= e.opts.MaxIterations {
			st.errf("engine: fixpoint exceeded %d iterations; aborting stratum", e.opts.MaxIterations)
			return
		}
		before := st.out.Derived
		st.delta = deltaSet{} // unused by naive joins but keeps produce() uniform
		for _, cr := range stratum {
			e.evalRule(cr, st, -1, nil)
		}
		st.out.Iterations++
		if st.out.Derived == before {
			return
		}
	}
}

// evalRule evaluates one rule. deltaPos < 0 requests a full evaluation;
// otherwise body position deltaPos ranges over prevDelta instead of the
// full relation. When the stage has a planner, the body is walked in the
// plan's order instead of written order.
func (e *Engine) evalRule(cr *CompiledRule, st *stageState, deltaPos int, prevDelta deltaSet) {
	if st.planner != nil {
		if ep := st.planner.compiledFor(cr, kindEval, deltaPos); ep != nil {
			ep.runEval(e, st, prevDelta)
			return
		}
	}
	env := make([]value.Value, cr.NumSlots)
	bound := make([]bool, cr.NumSlots)
	var ord []int
	if st.planner != nil {
		ord = st.planner.orderFor(cr, deltaPos)
	}
	e.evalFrom(cr, 0, env, bound, st, deltaPos, prevDelta, ord)
}

// bindAtomArgs unifies t against the atom's argument terms, binding free
// variable slots. On a match it returns true plus the slots newly bound —
// the caller must clear them (unbind) after its continuation returns. On a
// mismatch (including arity) every partial binding is already undone.
func bindAtomArgs(a *cAtom, t value.Tuple, env []value.Value, bound []bool) (bool, []int) {
	if len(t) != len(a.args) {
		return false, nil
	}
	var newlyBound []int
	for k, arg := range a.args {
		if arg.isVar {
			if bound[arg.slot] {
				if !env[arg.slot].Equal(t[k]) {
					unbind(bound, newlyBound)
					return false, nil
				}
			} else {
				env[arg.slot] = t[k]
				bound[arg.slot] = true
				newlyBound = append(newlyBound, arg.slot)
			}
		} else if !arg.val.Equal(t[k]) {
			unbind(bound, newlyBound)
			return false, nil
		}
	}
	return true, newlyBound
}

// unbind clears the given slots.
func unbind(bound []bool, slots []int) {
	for _, s := range slots {
		bound[s] = false
	}
}

// lookupMask computes the bound-column mask and values for an indexed
// lookup of atom a against rel under the current bindings. A zero mask
// (atom arity mismatch, or nothing bound) means "scan".
func lookupMask(a *cAtom, rel *store.Relation, env []value.Value, bound []bool) (store.ColMask, []value.Value) {
	var mask store.ColMask
	var boundVals []value.Value
	if len(a.args) != rel.Schema().Arity() {
		return 0, nil
	}
	for k, arg := range a.args {
		if arg.isVar {
			if bound[arg.slot] {
				mask |= 1 << uint(k)
				boundVals = append(boundVals, env[arg.slot])
			}
		} else {
			mask |= 1 << uint(k)
			boundVals = append(boundVals, arg.val)
		}
	}
	return mask, boundVals
}

// resolveName resolves a compiled relation/peer term to its string name.
func resolveName(t termRef, env []value.Value) (string, bool) {
	var v value.Value
	if t.isVar {
		v = env[t.slot]
	} else {
		v = t.val
	}
	if v.Kind() != value.KindString {
		return "", false
	}
	return v.StringVal(), true
}

// evalFrom evaluates the rule body from plan step `step` on. ord, when
// non-nil, maps plan steps to body positions (written order otherwise);
// all diagnostics and the deltaPos comparison use the *written* position,
// so planned and unplanned evaluation report identically.
func (e *Engine) evalFrom(cr *CompiledRule, step int, env []value.Value, bound []bool, st *stageState, deltaPos int, prevDelta deltaSet, ord []int) {
	if step == len(cr.Body) {
		e.produce(cr, env, st)
		return
	}
	i := step
	if ord != nil {
		i = ord[step]
	}
	a := &cr.Body[i]
	peerName, ok := resolveName(a.peer, env)
	if !ok {
		st.errf("engine: rule %s: peer term of body atom %d is not a string", cr.Rule.ID, i+1)
		return
	}
	if peerName == BuiltinPeer {
		relName, ok := resolveName(a.rel, env)
		if !ok {
			st.errf("engine: rule %s: relation term of body atom %d is not a string", cr.Rule.ID, i+1)
			return
		}
		holds, err := evalBuiltin(relName, a, env)
		if err != nil {
			st.errf("engine: rule %s: %v", cr.Rule.ID, err)
			return
		}
		if holds != a.neg {
			e.evalFrom(cr, step+1, env, bound, st, deltaPos, prevDelta, ord)
		}
		return
	}
	if peerName != e.local {
		e.addDelegation(cr, i, env, bound, peerName, st)
		return
	}
	relName, ok := resolveName(a.rel, env)
	if !ok {
		st.errf("engine: rule %s: relation term of body atom %d is not a string", cr.Rule.ID, i+1)
		return
	}
	rel := e.db.Get(relName, peerName)

	if a.neg {
		// Safety guarantees all argument terms are bound: membership test.
		t := make(value.Tuple, len(a.args))
		for k, arg := range a.args {
			if arg.isVar {
				t[k] = env[arg.slot]
			} else {
				t[k] = arg.val
			}
		}
		if rel == nil || len(a.args) != rel.Schema().Arity() || !rel.Contains(t) {
			e.evalFrom(cr, step+1, env, bound, st, deltaPos, prevDelta, ord)
		}
		return
	}

	// Positive atom: join against the relation (or the delta at deltaPos).
	unifyAndRecurse := func(t value.Tuple) bool {
		okTuple, newlyBound := bindAtomArgs(a, t, env, bound)
		if okTuple {
			if e.opts.Tracer != nil {
				st.supports = append(st.supports, ast.Fact{Rel: relName, Peer: peerName, Args: t})
				e.evalFrom(cr, step+1, env, bound, st, deltaPos, prevDelta, ord)
				st.supports = st.supports[:len(st.supports)-1]
			} else {
				e.evalFrom(cr, step+1, env, bound, st, deltaPos, prevDelta, ord)
			}
			unbind(bound, newlyBound)
		}
		return true // keep scanning
	}

	if i == deltaPos {
		for _, t := range prevDelta[relName+"@"+peerName] {
			unifyAndRecurse(t)
		}
		return
	}
	if rel == nil {
		return // unknown local relation: empty
	}
	mask, boundVals := lookupMask(a, rel, env, bound)
	rel.Lookup(mask, boundVals, e.opts.UseIndexes, unifyAndRecurse)
}

// produce materializes the head under the current bindings and routes it:
// local intensional -> derive now (feeding the fixpoint); local extensional
// -> buffered update for the next stage; remote -> outgoing message, or, for
// a remote-view rule in an incremental stage, a remote-view delta.
func (e *Engine) produce(cr *CompiledRule, env []value.Value, st *stageState) {
	if st.incr != nil && cr.RemoteView {
		e.deriveRemote(st, cr, env)
		return
	}
	headPeer, ok := resolveName(cr.Head.peer, env)
	if !ok {
		st.errf("engine: rule %s: head peer term is not a string", cr.Rule.ID)
		return
	}
	headRel, ok := resolveName(cr.Head.rel, env)
	if !ok {
		st.errf("engine: rule %s: head relation term is not a string", cr.Rule.ID)
		return
	}
	t := make(value.Tuple, len(cr.Head.args))
	for k, arg := range cr.Head.args {
		if arg.isVar {
			t[k] = env[arg.slot]
		} else {
			t[k] = arg.val
		}
	}
	fact := ast.Fact{Rel: headRel, Peer: headPeer, Args: t}
	op := cr.Rule.Op

	if headPeer != e.local {
		fo := FactOp{Op: op, Fact: fact}
		key := headPeer + "\x00" + fo.Key()
		if cr.Event && op == ast.Derive {
			st.noteEvent(headPeer, fact)
		}
		if !st.remoteSeen[key] {
			st.remoteSeen[key] = true
			st.out.Remote[headPeer] = append(st.out.Remote[headPeer], fo)
			e.trace(st, fact, cr)
		}
		return
	}

	rel := e.db.Get(headRel, headPeer)
	if rel == nil {
		// The paper: "peers may discover new peers and new relations".
		// Unknown local head relations are auto-declared extensional.
		var err error
		rel, err = e.db.Declare(store.Schema{
			Name: headRel, Peer: headPeer, Kind: ast.Extensional, Cols: genericCols(len(t)),
		})
		if err != nil {
			st.errf("engine: rule %s: %v", cr.Rule.ID, err)
			return
		}
	}
	if rel.Schema().Arity() != len(t) {
		st.errf("engine: rule %s: head %s has arity %d but relation expects %d",
			cr.Rule.ID, fact.String(), len(t), rel.Schema().Arity())
		return
	}

	if rel.Kind() == ast.Intensional {
		if op == ast.Delete {
			st.errf("engine: rule %s: cannot delete from intensional relation %s@%s",
				cr.Rule.ID, headRel, headPeer)
			return
		}
		if e.deriveLocal(st, rel, headRel+"@"+headPeer, t) {
			e.trace(st, fact, cr)
		}
		return
	}

	// Local extensional head: buffered +/- update, visible next stage.
	fo := FactOp{Op: op, Fact: fact}
	key := fo.Key()
	if !st.updatesSeen[key] {
		st.updatesSeen[key] = true
		st.out.LocalUpdates = append(st.out.LocalUpdates, fo)
		e.trace(st, fact, cr)
	}
}

// deriveLocal inserts a derived tuple into a local intensional relation and
// does the fixpoint and incremental-maintenance bookkeeping: the semi-naive
// delta, the derivation counter, and (under RunStageIncremental) the net
// view-delta sets. Returns whether the tuple was new. Shared by produce and
// the compiled terminal fast path (compilefast.go), which resolves the head
// statically and skips produce's name resolution per derivation.
func (e *Engine) deriveLocal(st *stageState, rel *store.Relation, relID string, t value.Tuple) bool {
	if !rel.Insert(t) {
		return false
	}
	st.out.Derived++
	st.delta[relID] = append(st.delta[relID], t)
	if ic := st.incr; ic != nil {
		key := t.Key()
		if m := ic.marked[relID]; m[key] != nil {
			delete(m, key) // deleted then rederived this stage: net zero
			// Un-ghost so a later deletion round can re-target it.
			delete(ic.ghosts[relID], key)
		} else if !ic.isSeeded(relID, key) {
			in := ic.insNew[relID]
			if in == nil {
				in = map[string]value.Tuple{}
				ic.insNew[relID] = in
			}
			in[key] = t
		}
	}
	return true
}

// noteEvent records an event rule's remote Derive emission in the stage's
// side set.
func (st *stageState) noteEvent(dst string, f ast.Fact) {
	m := st.events[dst]
	if m == nil {
		if st.events == nil {
			st.events = map[string]map[string]ast.Fact{}
		}
		m = map[string]ast.Fact{}
		st.events[dst] = m
	}
	m[f.Key()] = f
}

func (e *Engine) trace(st *stageState, head ast.Fact, cr *CompiledRule) {
	if e.opts.Tracer == nil {
		return
	}
	supports := make([]ast.Fact, len(st.supports))
	copy(supports, st.supports)
	e.opts.Tracer.OnDerive(head, cr.Rule, supports)
}

// addDelegation emits the residual rule for the suffix starting at body
// position i, with the prefix's bindings substituted in, targeted at peer
// target. Residuals are deduplicated; the peer layer handles replacing the
// previous stage's set (delegation maintenance).
func (e *Engine) addDelegation(cr *CompiledRule, i int, env []value.Value, bound []bool, target string, st *stageState) {
	sub := ast.Substitution{}
	for slot, name := range cr.SlotNames {
		if bound[slot] {
			sub[name] = env[slot]
		}
	}
	residual := sub.ApplyRule(ast.Rule{
		ID:     cr.Rule.ID,
		Origin: e.local,
		Op:     cr.Rule.Op,
		Head:   cr.Rule.Head,
		Body:   cr.Rule.Body[i:],
	})
	key := cr.Rule.ID + "\x00" + target + "\x00" + residual.String()
	if st.delegSeen[key] {
		return
	}
	st.delegSeen[key] = true
	byTarget := st.out.Delegations[cr.Rule.ID]
	if byTarget == nil {
		byTarget = map[string][]ast.Rule{}
		st.out.Delegations[cr.Rule.ID] = byTarget
	}
	byTarget[target] = append(byTarget[target], residual)
}

// genericCols returns placeholder column names c0..c(n-1) for relations
// discovered at run time.
func genericCols(n int) []string {
	cols := make([]string, n)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	return cols
}
