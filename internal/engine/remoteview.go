package engine

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// RemoteView is the maintained per-destination image of every fact a peer's
// program currently derives for remote peers (Derive-op heads only). It is
// owned by the peer's outbound session layer — it is per-(sender, receiver)
// stream state, the thing a resync snapshot replays — and passed into
// RunStageFull / RunStageIncremental, which advance it by each stage's
// remote deltas to produce Result.RemoteOut.
//
// The view is the materialization of the program's remote-view rules plus
// whatever its event rules emitted at the last stage. An incremental stage
// touches only the facts that changed: the remote-view deltas, the facts
// event rules emitted this stage or the last (kept in events), and the facts
// a one-shot deletion rule evicted at the last stage (kept in evicted). Only
// RunStageFull reconciles the whole view (Diff).
//
// Alongside the facts, the view keeps one Merkle summary tree
// (store.MerkleTree) per destination and relation, maintained incrementally
// from the stage's own maintained deltas — never rebuilt by walking the
// view. The tree roots are the O(1) digests an anti-entropy advert carries,
// and the trees answer the bisection dialogue's range-digest and range-fact
// queries in O(log n).
//
// A RemoteView is not safe for concurrent use; the peer accesses it under
// its own lock (stages and resync handling are both serialized there).
type RemoteView struct {
	views map[string]map[string]ast.Fact          // dst -> fact key -> fact
	trees map[string]map[string]*store.MerkleTree // dst -> relID at dst -> summary tree
	// events holds, per destination, the Derive facts event rules emitted
	// at the last stage. A fact they stop emitting loses that support and
	// is re-checked against the remote-view rules.
	events map[string]map[string]ast.Fact
	// evicted holds, per destination, the facts one-shot deletion rules
	// deleted at the last stage. They left the view; the next stage ships
	// a maintained insert for each one still derived.
	evicted map[string]map[string]ast.Fact
	// intern, when set, canonicalizes the tuples the view retains: a fact
	// maintained at many destinations (a post pushed to every follower)
	// keeps one tuple backing for all its ledger entries instead of one
	// copy per destination. Aliasing-only, like store.Relation's interner.
	intern *value.Interner
}

// NewRemoteView returns an empty maintained view.
func NewRemoteView() *RemoteView {
	return &RemoteView{
		views: map[string]map[string]ast.Fact{},
		trees: map[string]map[string]*store.MerkleTree{},
	}
}

// SetInterner routes the view's retained tuples through the given intern
// table (see the intern field). Call before the first Diff.
func (v *RemoteView) SetInterner(in *value.Interner) { v.intern = in }

// Digests returns the per-relation digests of the facts maintained at dst,
// empty when nothing is maintained there. O(#relations): each digest is a
// tree root read.
func (v *RemoteView) Digests(dst string) map[string]store.Digest {
	src := v.trees[dst]
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]store.Digest, len(src))
	for relID, tr := range src {
		out[relID] = tr.Root()
	}
	return out
}

// Tree returns the live summary tree of relID's maintained facts at dst, or
// nil when nothing is maintained. The tree belongs to the view — callers
// read it under the same lock that serializes Diff.
func (v *RemoteView) Tree(dst, relID string) *store.MerkleTree {
	return v.trees[dst][relID]
}

// RangeFacts returns the maintained facts of relID at dst whose canonical
// key hash falls in the inclusive range [lo, hi], in canonical (hash, key)
// order — the content of one ranged repair. The slice is the caller's.
func (v *RemoteView) RangeFacts(dst, relID string, lo, hi uint64) []ast.Fact {
	tr := v.trees[dst][relID]
	if tr == nil {
		return nil
	}
	keys := tr.RangeKeys(lo, hi)
	out := make([]ast.Fact, 0, len(keys))
	for _, key := range keys {
		if f, ok := v.views[dst][relID+"|"+key]; ok {
			out = append(out, f)
		}
	}
	return out
}

// SnapshotFacts returns every fact maintained at dst, sorted by key — the
// consistent content of a resync snapshot. The slice is the caller's.
func (v *RemoteView) SnapshotFacts(dst string) []ast.Fact {
	m := v.views[dst]
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]ast.Fact, len(keys))
	for i, key := range keys {
		out[i] = m[key]
	}
	return out
}

// install adds f under key to dst's view and summary tree and records the
// maintained insert in out.
func (v *RemoteView) install(out map[string][]RemoteOp, dst, key string, f ast.Fact) {
	if v.intern != nil {
		f.Args, _ = v.intern.Tuple(f.Args)
	}
	m := v.views[dst]
	if m == nil {
		m = map[string]ast.Fact{}
		v.views[dst] = m
	}
	m[key] = f
	tm := v.trees[dst]
	if tm == nil {
		tm = map[string]*store.MerkleTree{}
		v.trees[dst] = tm
	}
	relID := f.Rel + "@" + f.Peer
	tr := tm[relID]
	if tr == nil {
		tr = store.NewMerkleTree()
		tm[relID] = tr
	}
	tr.Add(f.Args.Key())
	out[dst] = append(out[dst], RemoteOp{Op: ast.Derive, Maint: true, Fact: f})
}

// uninstall removes the fact under key from dst's view and summary tree
// and records the maintained delete in out.
func (v *RemoteView) uninstall(out map[string][]RemoteOp, dst, key string) {
	m := v.views[dst]
	f := m[key]
	delete(m, key)
	if len(m) == 0 {
		delete(v.views, dst)
	}
	relID := f.Rel + "@" + f.Peer
	if tr := v.trees[dst][relID]; tr != nil {
		tr.Remove(f.Args.Key())
		if tr.Len() == 0 {
			delete(v.trees[dst], relID)
			if len(v.trees[dst]) == 0 {
				delete(v.trees, dst)
			}
		}
	}
	out[dst] = append(out[dst], RemoteOp{Op: ast.Delete, Maint: true, Fact: f})
}

// settle brings the fact under key at dst to the wanted membership,
// shipping the maintained insert or delete that takes. Settling a fact
// twice with the same verdict is a no-op.
func (v *RemoteView) settle(out map[string][]RemoteOp, dst, key string, f ast.Fact, want bool) {
	_, had := v.views[dst][key]
	switch {
	case want && !had:
		v.install(out, dst, key, f)
	case !want && had:
		v.uninstall(out, dst, key)
	}
}

// oneShotDeletes passes the stage's deletion-rule emissions through to out
// and returns them by destination and key. A one-shot delete undoes the
// fact at the receiver, so it also evicts the fact from the view; the next
// stage re-ships it as a maintained insert if it is still derived (the
// paper's continuous-update semantics, one stage later), instead of the
// view silently claiming the receiver still has it.
func oneShotDeletes(out map[string][]RemoteOp, remote map[string][]FactOp) map[string]map[string]ast.Fact {
	var del map[string]map[string]ast.Fact
	for dst, ops := range remote {
		for _, op := range ops {
			if op.Op != ast.Delete {
				continue
			}
			out[dst] = append(out[dst], RemoteOp{Op: ast.Delete, Fact: op.Fact})
			if del == nil {
				del = map[string]map[string]ast.Fact{}
			}
			if del[dst] == nil {
				del[dst] = map[string]ast.Fact{}
			}
			del[dst][op.Fact.Key()] = op.Fact
		}
	}
	return del
}

// Diff reconciles one stage's complete Derive-op emission set against the
// whole maintained view: newly derived facts ship as maintained inserts,
// facts no longer derived as maintained deletes, and explicit deletion-rule
// emissions pass through unchanged (evicting the fact, see oneShotDeletes).
// It costs O(view) and backs only RunStageFull; incremental stages advance
// the view by their deltas instead. Every emission counts as event-rule
// output, so a later incremental stage re-checks the facts it no longer
// emits. The summary trees advance by exactly the maintained deltas.
func (v *RemoteView) Diff(remote map[string][]FactOp) map[string][]RemoteOp {
	return v.reconcile(remote, deriveSet(remote))
}

// deriveSet returns the Derive emissions of remote by destination and key.
func deriveSet(remote map[string][]FactOp) map[string]map[string]ast.Fact {
	set := map[string]map[string]ast.Fact{}
	for dst, ops := range remote {
		for _, op := range ops {
			if op.Op == ast.Delete {
				continue
			}
			m := set[dst]
			if m == nil {
				m = map[string]ast.Fact{}
				set[dst] = m
			}
			m[op.Fact.Key()] = op.Fact
		}
	}
	return set
}

// reconcile is Diff with the stage's event-rule emissions given apart: the
// view remembers them as the event support the next stage checks.
func (v *RemoteView) reconcile(remote map[string][]FactOp, events map[string]map[string]ast.Fact) map[string][]RemoteOp {
	out := map[string][]RemoteOp{}
	oneShot := oneShotDeletes(out, remote)
	cur := deriveSet(remote)
	for dst, facts := range v.views {
		for key := range facts {
			if _, still := cur[dst][key]; !still {
				v.uninstall(out, dst, key)
			}
		}
	}
	for dst, m := range cur {
		for key, f := range m {
			_, del := oneShot[dst][key]
			v.settle(out, dst, key, f, !del)
		}
	}
	v.events, v.evicted = events, oneShot
	for _, ops := range out {
		sortRemoteOps(ops)
	}
	return out
}

// advance applies one incremental stage to the view and returns its remote
// deltas. ins holds the remote-view derivations that were not in the view,
// marked the over-deleted view facts the stage did not rederive, emitted
// the Derive facts event rules emitted, and remote the event rules' full
// output (its deletes are the one-shot deletions). derived reports whether
// a remote-view rule still derives a fact from the final database. Only
// those facts, the previous stage's event emissions and its evictions are
// looked at: the rest of the view is unchanged by construction.
func (v *RemoteView) advance(ins, marked, emitted map[string]map[string]ast.Fact, remote map[string][]FactOp, derived func(ast.Fact) bool) map[string][]RemoteOp {
	out := map[string][]RemoteOp{}
	oneShot := oneShotDeletes(out, remote)
	// want is a fact's membership after the stage: not deleted by a
	// one-shot rule, and emitted by an event rule or derived by a
	// remote-view rule.
	want := func(dst, key string, f ast.Fact) bool {
		if _, del := oneShot[dst][key]; del {
			return false
		}
		if _, ok := emitted[dst][key]; ok {
			return true
		}
		if _, ok := ins[dst][key]; ok {
			return true
		}
		return derived(f)
	}
	for _, src := range []map[string]map[string]ast.Fact{ins, emitted, marked, v.events, v.evicted, oneShot} {
		for dst, m := range src {
			for key, f := range m {
				v.settle(out, dst, key, f, want(dst, key, f))
			}
		}
	}
	v.events, v.evicted = emitted, oneShot
	for _, ops := range out {
		sortRemoteOps(ops)
	}
	return out
}
