package engine

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/store"
	"repro/internal/value"
)

// FuzzEngineStage decodes the fuzz input into batches of base-fact inserts
// and deletes, drives them through a fixed recursive program (transitive
// closure plus a builtin-filtered projection) on two incrementally
// maintained engines — compiled+planner against the bare interpreter — and
// on a from-scratch recompute reference, and requires all three to agree on
// every relation after every batch. This fuzzes exactly the surface the
// compiled layer replaces: semi-naive delta walks, DRed over-deletion,
// rederivation, across arbitrary insert/delete interleavings.
//
// The program also emits to a remote peer through every rule class that
// can: two overlapping remote-view rules, an event rule with a variable
// head peer deriving facts the remote views derive too, and a one-shot
// deletion rule. After every batch, a receiver model built by applying each
// stage's RemoteOut in order must equal the recompute engine's maintained
// view, and the maintained views and their Merkle roots must agree.
func FuzzEngineStage(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x80, 0x12})
	f.Add([]byte{0x01, 0x12, 0x01, 0x21, 0x81, 0x12, 0x01, 0x13, 0x01, 0x32})
	f.Add([]byte{0xff, 0x00, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc})
	f.Add([]byte{0x01, 0x12, 0x01, 0x23, 0x40, 0x10, 0x01, 0x31, 0xc0, 0x10, 0x81, 0x12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 120 {
			data = data[:120] // bound fixpoint sizes, keep iterations fast
		}
		// Decode: 2 bytes per op. The high bit of the first byte selects
		// delete, the next bit the trigger relation instead of edge; the
		// second byte packs the two attributes into a small domain so joins
		// and collisions actually happen. Batch boundary every 4 ops.
		type op struct {
			del, trig bool
			a, b      int64
		}
		var batches [][]op
		var cur []op
		for i := 0; i+1 < len(data); i += 2 {
			cur = append(cur, op{
				del:  data[i]&0x80 != 0,
				trig: data[i]&0x40 != 0,
				a:    int64(data[i+1] >> 4 & 0x7),
				b:    int64(data[i+1] & 0x7),
			})
			if len(cur) == 4 {
				batches = append(batches, cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			batches = append(batches, cur)
		}
		if len(batches) == 0 {
			return
		}

		schemas := []store.Schema{
			{Name: "edge", Peer: "local", Kind: ast.Extensional, Cols: []string{"a", "b"}},
			{Name: "trig", Peer: "local", Kind: ast.Extensional, Cols: []string{"a"}},
			{Name: "dest", Peer: "local", Kind: ast.Extensional, Cols: []string{"p"}},
			{Name: "reach", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}},
			{Name: "asc", Peer: "local", Kind: ast.Intensional, Cols: []string{"a", "b"}},
		}
		rules := mustRules(t,
			`reach@local($x, $y) :- edge@local($x, $y);`,
			`reach@local($x, $z) :- reach@local($x, $y), edge@local($y, $z);`,
			`asc@local($x, $y) :- reach@local($x, $y), lt@builtin($x, $y);`,
			`out@remote($x, $y) :- reach@local($x, $y);`,
			`out@remote($x, $y) :- edge@local($x, $y), edge@local($y, $x);`,
			`out@$p($x, $y) :- dest@local($p), asc@local($x, $y);`,
			`-out@remote($x, $y) :- trig@local($x), reach@local($x, $y);`,
		)

		type state struct {
			rels     map[string][]string
			view     []string          // maintained remote view at "remote"
			digests  map[string]string // Merkle roots at "remote"
			receiver []string          // model built from RemoteOut alone
		}
		run := func(opts Options, incremental bool) []state {
			db := store.New()
			for _, s := range schemas {
				if _, err := db.Declare(s); err != nil {
					t.Fatal(err)
				}
			}
			db.Get("dest", "local").Insert(value.Tuple{value.Str("remote")})
			e := New("local", db, opts)
			prog, err := e.CompileProgram(rules)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rv := NewRemoteView()
			receiver := map[string]string{} // fact key -> rendered fact
			apply := func(res *Result) {
				checkNoErrors(t, res)
				for _, o := range res.RemoteOut["remote"] {
					if o.Op == ast.Delete {
						delete(receiver, o.Fact.Key())
					} else {
						receiver[o.Fact.Key()] = o.Fact.String()
					}
				}
			}
			apply(e.RunStageFull(prog, nil, rv))
			var states []state
			for _, b := range batches {
				// Net batch effect, per the StageInput contract (see the
				// incremental grid test).
				in := &StageInput{Ins: map[string][]value.Tuple{}, Del: map[string][]value.Tuple{}}
				type touch struct {
					relID string
					tup   value.Tuple
					was   bool
				}
				touched := map[string]*touch{}
				var order []string
				for _, o := range b {
					relID, tup := "edge@local", value.Tuple{value.Int(o.a), value.Int(o.b)}
					if o.trig {
						relID, tup = "trig@local", value.Tuple{value.Int(o.a)}
					}
					rel := db.GetID(relID)
					k := relID + "|" + tup.Key()
					if touched[k] == nil {
						touched[k] = &touch{relID: relID, tup: tup, was: rel.Contains(tup)}
						order = append(order, k)
					}
					if o.del {
						rel.Delete(tup)
					} else {
						rel.Insert(tup)
					}
				}
				for _, k := range order {
					tc := touched[k]
					switch now := db.GetID(tc.relID).Contains(tc.tup); {
					case now && !tc.was:
						in.Ins[tc.relID] = append(in.Ins[tc.relID], tc.tup)
					case !now && tc.was:
						in.Del[tc.relID] = append(in.Del[tc.relID], tc.tup)
					}
				}
				if incremental {
					apply(e.RunStageIncremental(prog, in, rv))
				} else {
					apply(e.RunStageFull(prog, nil, rv))
				}
				st := state{rels: map[string][]string{}, digests: map[string]string{}}
				for _, s := range schemas {
					st.rels[s.Name] = relContents(db, s.Name, "local")
				}
				for _, f := range rv.SnapshotFacts("remote") {
					st.view = append(st.view, f.String())
				}
				for relID, d := range rv.Digests("remote") {
					st.digests[relID] = fmt.Sprint(d)
				}
				for _, f := range receiver {
					st.receiver = append(st.receiver, f)
				}
				sort.Strings(st.receiver)
				sort.Strings(st.view)
				states = append(states, st)
			}
			return states
		}

		compiled := DefaultOptions()
		interp := DefaultOptions()
		interp.Compiled = false
		interp.Planner = false
		ref := run(compiled, false)
		for step := range ref {
			if w, g := fmt.Sprint(ref[step].view), fmt.Sprint(ref[step].receiver); w != g {
				t.Fatalf("recompute step %d: receiver model %s differs from maintained view %s", step, g, w)
			}
		}
		for _, cfg := range []struct {
			name string
			opts Options
		}{{"compiled", compiled}, {"interpreted", interp}} {
			got := run(cfg.opts, true)
			for step := range ref {
				for rel, w := range ref[step].rels {
					g := got[step].rels[rel]
					if len(g) != len(w) {
						t.Fatalf("%s step %d: relation %s differs: recompute %v, incremental %v", cfg.name, step, rel, w, g)
					}
					for i := range w {
						if g[i] != w[i] {
							t.Fatalf("%s step %d: relation %s row %d: %s vs %s", cfg.name, step, rel, i, w[i], g[i])
						}
					}
				}
				w := fmt.Sprint(ref[step].view)
				if g := fmt.Sprint(got[step].receiver); g != w {
					t.Fatalf("%s step %d: receiver model %s, recompute view %s", cfg.name, step, g, w)
				}
				if g := fmt.Sprint(got[step].view); g != w {
					t.Fatalf("%s step %d: maintained view %s, recompute view %s", cfg.name, step, g, w)
				}
				if g, w := fmt.Sprint(got[step].digests), fmt.Sprint(ref[step].digests); g != w {
					t.Fatalf("%s step %d: digests %s, recompute digests %s", cfg.name, step, g, w)
				}
			}
		}
	})
}
