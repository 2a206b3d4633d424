package view

import (
	"fmt"

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

// Apply replays the updategram against a database. Deletes are applied
// before inserts so a tuple present in both ends up present.
func (u Updategram) Apply(db *relation.Database) error {
	r := db.Get(u.Relation)
	if r == nil {
		return fmt.Errorf("view: updategram for unknown relation %q", u.Relation)
	}
	for _, t := range u.Deletes {
		r.Delete(t)
	}
	for _, t := range u.Inserts {
		if err := r.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

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

// ViewDelta computes the updategram on the view induced by base-relation
// updategram u, given the post-update database state. It uses the
// standard delta rule for select-project-join views:
//
//	Δ(V) over body a1..an with Δ on relation R =
//	   ⋃ over occurrences of R:  a1 ⋈ .. ⋈ ΔR ⋈ .. ⋈ an
//
// evaluated with deletes against the pre-state and inserts against the
// post-state. For simplicity (and correctness under set semantics) this
// implementation computes the delta by evaluating the view body with the
// changed atom's relation replaced by the delta tuples; a final
// existence check against the other state removes spurious deletes.
//
// When one base update fans out to many views (the data-placement case),
// prepare the update once with PrepareUpdate and call DeltaFrom per
// view instead — ViewDelta rebuilds the shared scratch state per call.
func (m *MaterializedView) ViewDelta(pre, post *relation.Database, u Updategram) (Updategram, error) {
	p, err := PrepareUpdate(pre, post, u)
	if err != nil {
		return Updategram{Relation: m.View.Name}, err
	}
	return m.DeltaFrom(p)
}

// PreparedUpdate is the per-base-update evaluation state shared by every
// view affected by one updategram: the pre/post databases plus scratch
// databases with the delta tuples installed as a relation, built once
// and reused by each affected view's DeltaFrom. Without it, propagating
// one update to N subscriptions rebuilds N identical scratch databases.
type PreparedUpdate struct {
	u         Updategram
	post      *relation.Database
	insDB     *relation.Database // post state with Δ installed; nil without inserts
	delDB     *relation.Database // pre state with Δ installed; nil without deletes
	deltaName string
}

// PrepareUpdate builds the shared delta-evaluation state for one base
// updategram against the pre- and post-update database states.
func PrepareUpdate(pre, post *relation.Database, u Updategram) (*PreparedUpdate, error) {
	p := &PreparedUpdate{u: u, post: post, deltaName: "\x00delta_" + u.Relation}
	var err error
	if len(u.Inserts) > 0 {
		if p.insDB, err = deltaDB(post, u.Relation, p.deltaName, u.Inserts); err != nil {
			return nil, err
		}
	}
	if len(u.Deletes) > 0 {
		if p.delDB, err = deltaDB(pre, u.Relation, p.deltaName, u.Deletes); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// deltaDB returns db plus the delta tuples installed under deltaName
// with the updated relation's schema.
func deltaDB(db *relation.Database, relName, deltaName string, tuples []relation.Tuple) (*relation.Database, error) {
	base := db.Get(relName)
	if base == nil {
		return nil, fmt.Errorf("view: unknown relation %q", relName)
	}
	scratch := relation.NewDatabase()
	for _, r := range db.Relations() {
		scratch.Put(r)
	}
	dr := relation.New(relation.Schema{Name: deltaName, Attrs: base.Schema.Attrs})
	for _, t := range tuples {
		if err := dr.Insert(t); err != nil {
			return nil, err
		}
	}
	scratch.Put(dr)
	return scratch, nil
}

// DeltaFrom computes this view's updategram from a shared prepared
// update — the fan-out form of ViewDelta.
func (m *MaterializedView) DeltaFrom(p *PreparedUpdate) (Updategram, error) {
	out := Updategram{Relation: m.View.Name}
	occurrences := 0
	for _, a := range m.View.Def.Body {
		if a.Pred == p.u.Relation {
			occurrences++
		}
	}
	if occurrences == 0 {
		return out, nil
	}
	if len(p.u.Inserts) > 0 {
		ins, err := deltaEval(p.insDB, m.View.Def, p.u.Relation, p.deltaName)
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
		dels, err := deltaEval(p.delDB, m.View.Def, p.u.Relation, p.deltaName)
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
	out.Inserts = dedupTuples(out.Inserts)
	out.Deletes = dedupTuples(out.Deletes)
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

// deltaEval evaluates the view body against a prepared scratch database
// (base state plus delta relation), substituting the delta for one
// occurrence of relName at a time and unioning the results.
func deltaEval(scratch *relation.Database, def cq.Query, relName, deltaName string) ([]relation.Tuple, error) {
	var results []relation.Tuple
	for i, a := range def.Body {
		if a.Pred != relName {
			continue
		}
		q := def.Clone()
		q.Body[i].Pred = deltaName
		r, err := cq.Eval(scratch, q)
		if err != nil {
			return nil, err
		}
		results = append(results, r.Rows()...)
	}
	return results, nil
}

// derivable reports whether tuple t is an answer of def over db.
func derivable(db *relation.Database, def cq.Query, t relation.Tuple) (bool, error) {
	r, err := cq.Eval(db, def)
	if err != nil {
		return false, err
	}
	return r.Contains(t), nil
}

// dedupTuples drops repeated tuples in place, keeping first occurrences.
func dedupTuples(ts []relation.Tuple) []relation.Tuple {
	if len(ts) < 2 {
		return ts
	}
	seen := relation.NewTupleSet(len(ts))
	out := ts[:0]
	for _, t := range ts {
		if seen.Add(t) {
			out = append(out, t)
		}
	}
	return out
}
