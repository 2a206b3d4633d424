package view

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/relation"
)

// Updategram describes a delta on one base relation. Piazza "treats
// updates as first-class citizens ... in the form of updategrams" and
// combines base updategrams into view updategrams (§3.1.2).
type Updategram struct {
	Relation string
	Inserts  []relation.Tuple
	Deletes  []relation.Tuple
}

// IsEmpty reports whether the updategram carries no changes.
func (u Updategram) IsEmpty() bool { return len(u.Inserts) == 0 && len(u.Deletes) == 0 }

// Size returns the number of changed tuples.
func (u Updategram) Size() int { return len(u.Inserts) + len(u.Deletes) }

// MaterializedView holds the extent of a view definition over some base
// database, supporting full refresh and incremental delta application.
type MaterializedView struct {
	View   View
	Extent *relation.Relation
}

// NewMaterialized creates an unpopulated materialized view.
func NewMaterialized(v View) *MaterializedView {
	return &MaterializedView{View: v}
}

// Refresh recomputes the extent from scratch.
func (m *MaterializedView) Refresh(db *relation.Database) error {
	r, err := cq.Eval(db, m.View.Def)
	if err != nil {
		return err
	}
	m.Extent = r
	return nil
}

// PreparedUpdate is the per-base-update evaluation state every view
// affected by one updategram shares: the delta tuples installed as a
// relation over the pre and post states, built once. A view's delta is
// the standard rule for select-project-join views, with Δ on R:
//
//	Δ(V) over body a1..an = ⋃ over occurrences of R:  a1 ⋈ .. ⋈ ΔR ⋈ .. ⋈ an
//
// with deletes against the pre-state and inserts against the post-state;
// a deleted tuple still derivable in the post-state stays.
type PreparedUpdate struct {
	u         Updategram
	post      *relation.Database
	insCat    cq.Catalog // post state with Δ installed; nil without inserts
	delCat    cq.Catalog // pre state with Δ installed; nil without deletes
	deltaName string
}

// PrepareUpdate builds the shared delta-evaluation state for one base
// updategram against the pre- and post-update database states.
func PrepareUpdate(pre, post *relation.Database, u Updategram) (*PreparedUpdate, error) {
	p := &PreparedUpdate{u: u, post: post, deltaName: "\x00delta_" + u.Relation}
	var err error
	if len(u.Inserts) > 0 {
		if p.insCat, err = deltaOverlay(post, u.Relation, p.deltaName, u.Inserts); err != nil {
			return nil, err
		}
	}
	if len(u.Deletes) > 0 {
		if p.delCat, err = deltaOverlay(pre, u.Relation, p.deltaName, u.Deletes); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// deltaOverlay returns db with the delta tuples installed over it as
// deltaName, a relation with the updated relation's schema whose
// sketches let the planner order delta joins as for a stored relation.
func deltaOverlay(db *relation.Database, relName, deltaName string, tuples []relation.Tuple) (cq.Catalog, error) {
	base := db.Get(relName)
	if base == nil {
		return nil, fmt.Errorf("view: unknown relation %q", relName)
	}
	dr := relation.New(relation.Schema{Name: deltaName, Attrs: base.Schema.Attrs})
	if err := dr.InsertBatch(tuples); err != nil {
		return nil, err
	}
	return cq.Overlay{Base: db, Over: map[string]*relation.Relation{deltaName: dr}}, nil
}

// DeltaFrom computes this view's updategram from a shared prepared
// update: the tuples the delta adds to or removes from the extent.
func (m *MaterializedView) DeltaFrom(p *PreparedUpdate) (Updategram, error) {
	out := Updategram{Relation: m.View.Name}
	if !slices.ContainsFunc(m.View.Def.Body, func(a cq.Atom) bool { return a.Pred == p.u.Relation }) {
		return out, nil
	}
	if len(p.u.Inserts) > 0 {
		ins, err := deltaEval(p.insCat, m.View.Def, p.u.Relation, p.deltaName)
		if err != nil {
			return out, err
		}
		for _, t := range ins {
			if m.Extent == nil || !m.Extent.Contains(t) {
				out.Inserts = append(out.Inserts, t)
			}
		}
	}
	if len(p.u.Deletes) > 0 {
		dels, err := deltaEval(p.delCat, m.View.Def, p.u.Relation, p.deltaName)
		if err != nil {
			return out, err
		}
		// A derived deletion only holds if the tuple is no longer
		// derivable in the post state (other derivations may remain).
		for _, t := range dels {
			still, err := derivable(p.post, m.View.Def, t)
			if err != nil {
				return out, err
			}
			if !still {
				out.Deletes = append(out.Deletes, t)
			}
		}
	}
	return out, nil
}

// ApplyDelta updates the extent with a view updategram.
func (m *MaterializedView) ApplyDelta(d Updategram) error {
	if m.Extent == nil {
		return fmt.Errorf("view: ApplyDelta before Refresh on %s", m.View.Name)
	}
	for _, t := range d.Deletes {
		m.Extent.Delete(t)
	}
	for _, t := range d.Inserts {
		if !m.Extent.Contains(t) {
			if err := m.Extent.Insert(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// deltaEval evaluates the view body against a prepared catalog (base
// state plus delta relation), substituting the delta for one occurrence
// of relName at a time, as one deduplicated union.
func deltaEval(cat cq.Catalog, def cq.Query, relName, deltaName string) ([]relation.Tuple, error) {
	var qs []cq.Query
	for i, a := range def.Body {
		if a.Pred == relName {
			q := def.Clone()
			q.Body[i].Pred = deltaName
			qs = append(qs, q)
		}
	}
	r, err := cq.EvalUnion(cat, qs)
	if err != nil {
		return nil, err
	}
	return r.Rows(), nil
}

// derivable reports whether tuple t is an answer of def over db.
func derivable(db *relation.Database, def cq.Query, t relation.Tuple) (bool, error) {
	r, err := cq.Eval(db, def)
	if err != nil {
		return false, err
	}
	return r.Contains(t), nil
}
