package cq

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Eval evaluates a conjunctive query against a database and returns a
// relation holding the head projection. It compiles the query to a
// slot-based plan (see compile.go) and executes it; the legacy
// map-binding interpreter is kept as EvalReference for differential
// testing.
func Eval(db Catalog, q Query) (*relation.Relation, error) {
	plan, err := Compile(db, q)
	if err != nil {
		return nil, err
	}
	return plan.Exec()
}

// EvalUnion evaluates a union of conjunctive queries (a UCQ) and returns
// the set union of their answers, deduplicated through a single shared
// hash set as branches execute — no per-branch relations or repeated
// Dedup passes. All queries must share head arity.
func EvalUnion(db Catalog, queries []Query) (*relation.Relation, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("cq: empty union")
	}
	plans := make([]*Plan, len(queries))
	for i, q := range queries {
		p, err := Compile(db, q)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return ExecUnion(plans)
}

// EvalReference is the original map-bindings interpreter, retained as
// the executable specification the compiled engine is tested against.
func EvalReference(db Catalog, q Query) (*relation.Relation, error) {
	if !q.IsSafe() {
		return nil, fmt.Errorf("cq: unsafe query %s", q)
	}
	for _, a := range q.Body {
		r := db.Get(a.Pred)
		if r == nil {
			return nil, fmt.Errorf("cq: unknown relation %q in %s", a.Pred, q)
		}
		if r.Schema.Arity() != len(a.Args) {
			return nil, fmt.Errorf("cq: atom %s has %d args, relation has arity %d",
				a, len(a.Args), r.Schema.Arity())
		}
	}
	bindings := []map[string]relation.Value{{}}
	remaining := make([]Atom, len(q.Body))
	copy(remaining, q.Body)
	for len(remaining) > 0 {
		i := pickNextAtom(remaining, bindings)
		atom := remaining[i]
		remaining = append(remaining[:i], remaining[i+1:]...)
		bindings = joinAtom(db, atom, bindings)
		if len(bindings) == 0 {
			break
		}
	}
	return projectHead(db, q, bindings)
}

// pickNextAtom chooses the atom with the most variables already bound
// (ties broken by fewer total variables, then order).
func pickNextAtom(atoms []Atom, bindings []map[string]relation.Value) int {
	if len(bindings) == 0 {
		return 0
	}
	bound := bindings[0]
	best, bestScore, bestFree := 0, -1, 1<<30
	for i, a := range atoms {
		score, free := 0, 0
		for _, v := range a.Vars() {
			if _, ok := bound[v]; ok {
				score++
			} else {
				free++
			}
		}
		if score > bestScore || (score == bestScore && free < bestFree) {
			best, bestScore, bestFree = i, score, free
		}
	}
	return best
}

// joinAtom extends each binding with matching rows of the atom's relation.
func joinAtom(db Catalog, atom Atom, bindings []map[string]relation.Value) []map[string]relation.Value {
	rel := db.Get(atom.Pred)
	// Choose a probe column: first arg position that is a constant or a
	// variable bound in all bindings (bindings share a bound-var set),
	// and hash the relation's rows on it for this call only.
	idxCol := -1
	if len(bindings) > 0 {
		for col, t := range atom.Args {
			if !t.IsVar {
				idxCol = col
				break
			}
			if _, ok := bindings[0][t.Var]; ok {
				idxCol = col
				break
			}
		}
	}
	var idx map[relation.Value][]int
	if idxCol >= 0 {
		idx = make(map[relation.Value][]int)
		for i, row := range rel.Rows() {
			idx[row[idxCol]] = append(idx[row[idxCol]], i)
		}
	}
	var out []map[string]relation.Value
	for _, b := range bindings {
		if idxCol >= 0 {
			probe := atom.Args[idxCol]
			var v relation.Value
			if probe.IsVar {
				v = b[probe.Var]
			} else {
				v = probe.Const
			}
			for _, id := range idx[v] {
				if nb, ok := matchRow(atom, rel.Row(id), b); ok {
					out = append(out, nb)
				}
			}
			continue
		}
		for _, row := range rel.Rows() {
			if nb, ok := matchRow(atom, row, b); ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// matchRow unifies an atom's args against a concrete row under binding b.
func matchRow(atom Atom, row relation.Tuple, b map[string]relation.Value) (map[string]relation.Value, bool) {
	nb := b
	copied := false
	for col, t := range atom.Args {
		v := row[col]
		if t.IsVar {
			if bound, ok := nb[t.Var]; ok {
				if bound != v {
					return nil, false
				}
				continue
			}
			if !copied {
				cp := make(map[string]relation.Value, len(nb)+2)
				for k, val := range nb {
					cp[k] = val
				}
				nb = cp
				copied = true
			}
			nb[t.Var] = v
		} else if t.Const != v {
			return nil, false
		}
	}
	return nb, true
}

// projectHead builds the answer relation from the final bindings.
func projectHead(db Catalog, q Query, bindings []map[string]relation.Value) (*relation.Relation, error) {
	attrs := make([]relation.Attribute, len(q.HeadVars))
	// Prefer the schema-derived type for each head column; fall back to
	// the first binding (trusting bindings[0] alone mistypes a column
	// whose bindings are mixed).
	for i, v := range q.HeadVars {
		attrs[i] = relation.Attribute{Name: v, Type: relation.TString}
		if typ, ok := headTypeFromSchema(db, q, v); ok {
			attrs[i].Type = typ
		} else if len(bindings) > 0 {
			if val, ok := bindings[0][v]; ok {
				attrs[i].Type = val.Kind
			}
		}
	}
	out := relation.New(relation.Schema{Name: q.HeadPred, Attrs: attrs})
	for _, b := range bindings {
		t := make(relation.Tuple, len(q.HeadVars))
		for i, v := range q.HeadVars {
			t[i] = b[v]
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	out.Dedup()
	return out, nil
}

// headTypeFromSchema infers a head variable's type from the schema of the
// first body atom mentioning it.
func headTypeFromSchema(db Catalog, q Query, varName string) (relation.Type, bool) {
	for _, a := range q.Body {
		rel := db.Get(a.Pred)
		if rel == nil {
			continue
		}
		for col, t := range a.Args {
			if t.IsVar && t.Var == varName {
				return rel.Schema.Attrs[col].Type, true
			}
		}
	}
	return relation.TString, false
}

// SortedAnswers is a convenience for tests: evaluates and returns tuples
// in sorted order.
func SortedAnswers(db Catalog, q Query) ([]relation.Tuple, error) {
	r, err := Eval(db, q)
	if err != nil {
		return nil, err
	}
	rows := make([]relation.Tuple, len(r.Rows()))
	copy(rows, r.Rows())
	sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
	return rows, nil
}
