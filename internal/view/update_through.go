package view

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/relation"
)

// TranslateUpdate implements the §3.1.2 extension the paper flags
// ("ultimately, we want to support updating of data through views"):
// it translates an updategram expressed against a view into updategrams
// on the base relations, refusing translations that would be ambiguous
// or side-effecting.
//
// Supported views are select/project views: a single body atom, possibly
// with constants (selection) and projected-away variables. Inserts
// through a projection are rejected (the hidden columns' values are
// unknowable); inserts through a selection fill in the selection
// constants. Deletes remove every base tuple that derives the deleted
// view tuple, which requires the current base state.
//
// Each translated base tuple derives exactly the view tuple it came
// from, so the result changes the view by exactly u — except for a view
// repeating a head variable (v(A, A) :- r(A)) asked for a tuple whose
// repeated positions differ, which is refused up front. Equal victims
// repeat; deleting one removes every equal row.
func TranslateUpdate(v View, db *relation.Database, u Updategram) ([]Updategram, error) {
	def := v.Def
	if len(def.Body) != 1 {
		return nil, fmt.Errorf("view: update through join view %s is ambiguous", v.Name)
	}
	atom := def.Body[0]
	base := db.Get(atom.Pred)
	if base == nil {
		return nil, fmt.Errorf("view: unknown base relation %q", atom.Pred)
	}
	if base.Schema.Arity() != len(atom.Args) {
		return nil, fmt.Errorf("view: %s arity mismatch with %s", v.Name, atom.Pred)
	}
	headPos := make(map[string]int, len(def.HeadVars))
	for i, hv := range def.HeadVars {
		if _, dup := headPos[hv]; !dup {
			headPos[hv] = i
		}
	}
	out := Updategram{Relation: atom.Pred}

	for _, t := range u.Inserts {
		if err := checkViewTuple("insert", v, headPos, t); err != nil {
			return nil, err
		}
		baseTuple := make(relation.Tuple, len(atom.Args))
		for col, arg := range atom.Args {
			switch {
			case !arg.IsVar:
				baseTuple[col] = arg.Const
			default:
				pos, exported := headPos[arg.Var]
				if !exported {
					return nil, fmt.Errorf("view: insert through projection view %s: column %d of %s has no value",
						v.Name, col, atom.Pred)
				}
				baseTuple[col] = t[pos]
			}
		}
		if err := base.Schema.Compatible(baseTuple); err != nil {
			return nil, fmt.Errorf("view: translated insert invalid: %w", err)
		}
		out.Inserts = append(out.Inserts, baseTuple)
	}

	for _, t := range u.Deletes {
		if err := checkViewTuple("delete", v, headPos, t); err != nil {
			return nil, err
		}
		// Delete every base tuple matching the pattern.
		for _, row := range base.Rows() {
			if matchesPattern(atom, def.HeadVars, headPos, row, t) {
				out.Deletes = append(out.Deletes, row.Clone())
			}
		}
	}
	if out.IsEmpty() {
		return nil, nil
	}
	return []Updategram{out}, nil
}

// checkViewTuple refuses a view tuple no base tuple derives: wrong
// arity, or differing values under one repeated head variable.
func checkViewTuple(op string, v View, headPos map[string]int, t relation.Tuple) error {
	if len(t) != len(v.Def.HeadVars) {
		return fmt.Errorf("view: %s arity %d, view arity %d", op, len(t), len(v.Def.HeadVars))
	}
	for i, hv := range v.Def.HeadVars {
		if j := headPos[hv]; j != i && t[i] != t[j] {
			return fmt.Errorf("view: %s %v through %s: columns %d and %d both export %s but differ",
				op, t, v.Name, j, i, hv)
		}
	}
	return nil
}

// matchesPattern reports whether a base row derives the given view tuple.
func matchesPattern(atom cq.Atom, headVars []string, headPos map[string]int, row, viewTuple relation.Tuple) bool {
	bound := make(map[string]relation.Value, len(atom.Args))
	for col, arg := range atom.Args {
		if !arg.IsVar {
			if row[col] != arg.Const {
				return false
			}
			continue
		}
		if pos, exported := headPos[arg.Var]; exported {
			if row[col] != viewTuple[pos] {
				return false
			}
		}
		if prev, ok := bound[arg.Var]; ok {
			if prev != row[col] {
				return false
			}
		} else {
			bound[arg.Var] = row[col]
		}
	}
	return true
}
