// Package view implements answering queries using views — the
// local-as-view half of Piazza's GLAV reformulation (§3.1.1: "it performs
// query unfolding and query reformulation using views") — plus
// materialized views with incremental maintenance driven by updategrams
// (§3.1.2).
package view

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cq"
)

// View is a named query definition: Def.HeadPred is the view's name; the
// body is over base (stored) relations.
type View struct {
	Name string
	Def  cq.Query
}

// NewView builds a view, normalizing the definition's head predicate to
// the view name.
func NewView(name string, def cq.Query) View {
	d := def.Clone()
	d.HeadPred = name
	return View{Name: name, Def: d}
}

// RewriteOptions tunes the rewriting search.
type RewriteOptions struct {
	// MaxRewritings caps the number of returned rewritings (0 = no cap).
	MaxRewritings int
}

// Rewriting is one candidate rewriting together with its expansion.
type Rewriting struct {
	// Query is phrased over view names.
	Query cq.Query
	// Expansion is Query with views unfolded back to base relations.
	Expansion cq.Query
	// Equivalent records whether Expansion ≡ the original query.
	Equivalent bool
}

// Rewrite finds conjunctive rewritings of q that use only the given
// views, in the style of the bucket algorithm: for each subgoal collect
// views whose expansions can cover it, combine one choice per subgoal,
// and validate each combination by containment of its expansion in q
// (sound) and, when possible, q in the expansion (equivalent).
//
// Returned rewritings are sorted: equivalent first, then fewer atoms.
func Rewrite(q cq.Query, views []View, opts RewriteOptions) ([]Rewriting, error) {
	if !q.IsSafe() {
		return nil, fmt.Errorf("view: unsafe query %s", q)
	}
	buckets, err := buildBuckets(q, views)
	if err != nil {
		return nil, err
	}
	for _, b := range buckets {
		if len(b) == 0 {
			return nil, nil // some subgoal is uncoverable: no rewriting
		}
	}
	unfolder := cq.NewUnfolder(nil)
	for _, v := range views {
		unfolder.AddDef(v.Def)
	}
	var out []Rewriting
	seen := make(map[string]bool)
	var combine func(i int, chosen []bucketEntry) bool
	combine = func(i int, chosen []bucketEntry) bool {
		if i == len(buckets) {
			rw, ok := assembleRewriting(q, chosen)
			if !ok {
				return true
			}
			key := cq.CanonicalKey(rw)
			if seen[key] {
				return true
			}
			seen[key] = true
			expansions, err := unfolder.Unfold(rw, len(rw.Body)*2+2)
			if err != nil || len(expansions) != 1 {
				return true
			}
			exp := expansions[0]
			if !cq.Contains(q, exp) {
				return true // unsound combination
			}
			eq := cq.Contains(exp, q)
			out = append(out, Rewriting{Query: rw, Expansion: exp, Equivalent: eq})
			return opts.MaxRewritings == 0 || len(out) < opts.MaxRewritings
		}
		for _, entry := range buckets[i] {
			if !combine(i+1, append(chosen, entry)) {
				return false
			}
		}
		return true
	}
	combine(0, nil)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Equivalent != out[j].Equivalent {
			return out[i].Equivalent
		}
		return len(out[i].Query.Body) < len(out[j].Query.Body)
	})
	return out, nil
}

// bucketEntry records that view (renamed as atom) can cover subgoal i,
// with the head-variable substitution already applied.
type bucketEntry struct {
	viewAtom cq.Atom
	// coveredVars maps query vars covered by this view use.
	coveredVars map[string]bool
}

// buildBuckets creates, per query subgoal, the view atoms that can cover
// it: a view covers subgoal g if some atom in the view's definition
// unifies with g such that every distinguished (head) position needed by
// the query is exported by the view head.
func buildBuckets(q cq.Query, views []View) ([][]bucketEntry, error) {
	headSet := make(map[string]bool)
	for _, v := range q.HeadVars {
		headSet[v] = true
	}
	// joinVars: vars shared between subgoals — these must be exported too.
	count := make(map[string]int)
	for _, a := range q.Body {
		for _, v := range a.Vars() {
			count[v]++
		}
	}
	needed := func(v string) bool { return headSet[v] || count[v] > 1 }

	buckets := make([][]bucketEntry, len(q.Body))
	vcounter := 0
	for gi, goal := range q.Body {
		for _, view := range views {
			def := view.Def
			for _, va := range def.Body {
				if va.Pred != goal.Pred || len(va.Args) != len(goal.Args) {
					continue
				}
				vcounter++
				entry, ok := coverGoal(goal, view, va, needed, "v"+strconv.Itoa(vcounter)+"_")
				if ok {
					buckets[gi] = append(buckets[gi], entry)
				}
			}
		}
	}
	return buckets, nil
}

// coverGoal tries to use view (via its body atom va) to cover goal.
// It renames the view apart, unifies va's args with goal's args, and
// checks that every needed goal variable lands on an exported position.
func coverGoal(goal cq.Atom, view View, va cq.Atom, needed func(string) bool, prefix string) (bucketEntry, bool) {
	def := view.Def.RenameVars(prefix)
	// Locate the renamed va inside def (same position by construction:
	// find the first body atom with matching pred & arg pattern).
	var target cq.Atom
	found := false
	for _, a := range def.Body {
		if a.Pred == va.Pred && len(a.Args) == len(va.Args) && matchesRenamed(a, va, prefix) {
			target = a
			found = true
			break
		}
	}
	if !found {
		return bucketEntry{}, false
	}
	exported := make(map[string]int) // renamed def head var -> position
	for i, hv := range def.HeadVars {
		if _, dup := exported[hv]; !dup {
			exported[hv] = i
		}
	}
	// Build the view atom's argument list: start with fresh existential
	// vars for each head position; unification below overwrites.
	viewArgs := make([]cq.Term, len(def.HeadVars))
	for i := range viewArgs {
		viewArgs[i] = cq.V(prefix + "f" + strconv.Itoa(i))
	}
	covered := make(map[string]bool)
	for i, gArg := range goal.Args {
		vArg := target.Args[i]
		switch {
		case gArg.IsVar:
			pos, isExported := exported[vArg.Var]
			if !vArg.IsVar {
				// view has a constant where the query has a variable: the
				// view restricts the goal; only usable if the query var is
				// not needed elsewhere (it would bind to one constant —
				// sound for containment but we reject for simplicity).
				if needed(gArg.Var) {
					return bucketEntry{}, false
				}
				continue
			}
			if needed(gArg.Var) {
				if !isExported {
					return bucketEntry{}, false
				}
				viewArgs[pos] = cq.V(gArg.Var)
				covered[gArg.Var] = true
			} else if isExported {
				viewArgs[pos] = cq.V(gArg.Var)
				covered[gArg.Var] = true
			}
		default: // goal has a constant
			if vArg.IsVar {
				pos, isExported := exported[vArg.Var]
				if !isExported {
					return bucketEntry{}, false // can't force constant on existential
				}
				viewArgs[pos] = gArg
			} else if vArg.Const != gArg.Const {
				return bucketEntry{}, false
			}
		}
	}
	return bucketEntry{
		viewAtom:    cq.Atom{Pred: view.Name, Args: viewArgs},
		coveredVars: covered,
	}, true
}

// matchesRenamed reports whether renamed atom a corresponds to original va
// under the given prefix.
func matchesRenamed(a, va cq.Atom, prefix string) bool {
	for i := range a.Args {
		ra, ov := a.Args[i], va.Args[i]
		if ra.IsVar != ov.IsVar {
			return false
		}
		if ra.IsVar {
			if ra.Var != prefix+ov.Var {
				return false
			}
		} else if ra.Const != ov.Const {
			return false
		}
	}
	return true
}

// assembleRewriting joins the chosen bucket entries into one conjunctive
// query over view predicates; fails if some head variable is uncovered.
func assembleRewriting(q cq.Query, chosen []bucketEntry) (cq.Query, bool) {
	covered := make(map[string]bool)
	var body []cq.Atom
	for _, e := range chosen {
		body = append(body, e.viewAtom.Clone())
		for v := range e.coveredVars {
			covered[v] = true
		}
	}
	for _, hv := range q.HeadVars {
		if !covered[hv] {
			return cq.Query{}, false
		}
	}
	return cq.Query{HeadPred: q.HeadPred, HeadVars: append([]string(nil), q.HeadVars...), Body: body}, true
}
