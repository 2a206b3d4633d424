package view

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/relation"
)

func baseDB() *relation.Database {
	db := relation.NewDatabase()
	course := relation.New(relation.NewSchema("course",
		relation.Attr("title"), relation.Attr("instructor"), relation.IntAttr("size")))
	course.MustInsert(relation.SV("DB"), relation.SV("halevy"), relation.IV(40))
	course.MustInsert(relation.SV("AI"), relation.SV("etzioni"), relation.IV(60))
	course.MustInsert(relation.SV("OS"), relation.SV("levy"), relation.IV(30))
	db.Put(course)
	person := relation.New(relation.NewSchema("person",
		relation.Attr("name"), relation.Attr("dept")))
	person.MustInsert(relation.SV("halevy"), relation.SV("cs"))
	person.MustInsert(relation.SV("etzioni"), relation.SV("cs"))
	db.Put(person)
	return db
}

func TestRewriteSingleView(t *testing.T) {
	v := NewView("v_teaches", cq.MustParse("v(T, I) :- course(T, I, S)"))
	q := cq.MustParse("q(T, I) :- course(T, I, S)")
	rws, err := Rewrite(q, []View{v}, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) == 0 {
		t.Fatal("no rewriting found")
	}
	if !rws[0].Equivalent {
		t.Errorf("rewriting should be equivalent: %v", rws[0].Query)
	}
	if rws[0].Query.Body[0].Pred != "v_teaches" {
		t.Errorf("rewriting uses %v", rws[0].Query.Body)
	}
}

func TestRewriteProjectionLosesVariable(t *testing.T) {
	// View exports only title; query needs instructor → no rewriting.
	v := NewView("v_titles", cq.MustParse("v(T) :- course(T, I, S)"))
	q := cq.MustParse("q(T, I) :- course(T, I, S)")
	rws, err := Rewrite(q, []View{v}, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) != 0 {
		t.Errorf("expected no rewriting, got %v", rws)
	}
}

func TestRewriteJoinAcrossViews(t *testing.T) {
	v1 := NewView("v_course", cq.MustParse("v(T, I) :- course(T, I, S)"))
	v2 := NewView("v_person", cq.MustParse("v(N, D) :- person(N, D)"))
	q := cq.MustParse("q(T, D) :- course(T, I, S), person(I, D)")
	rws, err := Rewrite(q, []View{v1, v2}, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) == 0 {
		t.Fatal("no rewriting")
	}
	best := rws[0]
	if !best.Equivalent || len(best.Query.Body) != 2 {
		t.Errorf("best rewriting = %+v", best)
	}
	// Execute the rewriting against materialized views and compare with
	// direct evaluation.
	db := baseDB()
	direct, err := cq.Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}
	vdb := relation.NewDatabase()
	for _, v := range []View{v1, v2} {
		m := NewMaterialized(v)
		if err := m.Refresh(db); err != nil {
			t.Fatal(err)
		}
		ext := relation.New(relation.Schema{Name: v.Name, Attrs: m.Extent.Schema.Attrs})
		for _, row := range m.Extent.Rows() {
			if err := ext.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		vdb.Put(ext)
	}
	viaViews, err := cq.Eval(vdb, best.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(viaViews) {
		t.Errorf("rewriting answers %v != direct %v", viaViews.Rows(), direct.Rows())
	}
}

func TestRewriteWithConstant(t *testing.T) {
	v := NewView("v_all", cq.MustParse("v(T, I, S) :- course(T, I, S)"))
	q := cq.MustParse("q(T) :- course(T, 'halevy', S)")
	rws, err := Rewrite(q, []View{v}, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) == 0 || !rws[0].Equivalent {
		t.Fatalf("no equivalent rewriting: %+v", rws)
	}
	// Constant must be pushed into the view atom.
	found := false
	for _, arg := range rws[0].Query.Body[0].Args {
		if !arg.IsVar && arg.Const == relation.SV("halevy") {
			found = true
		}
	}
	if !found {
		t.Errorf("constant not pushed: %v", rws[0].Query)
	}
}

// TestRewriteKeepsDistinctRewritings covers two same-shaped views over
// one relation answering a query with two subgoals. Each of the four
// ways to cover the subgoals is a distinct rewriting, and all four must
// survive the dedup of rewritings already seen. Two constant pairs
// render the "v for the first, w for the second" rewriting exactly
// like the swapped one: 1 and 1.0 print alike, and the string
// "a');w(X, 'a" spells a second w atom.
func TestRewriteKeepsDistinctRewritings(t *testing.T) {
	v := NewView("v", cq.MustParse("v(A, B) :- p(A, B)"))
	w := NewView("w", cq.MustParse("w(A, B) :- p(A, B)"))
	for name, pair := range map[string][2]relation.Value{
		"int vs float":   {relation.IV(1), relation.FV(1)},
		"spelled atom":   {relation.SV("a"), relation.SV("a');w(X, 'a")},
		"plain constant": {relation.SV("a"), relation.SV("b")},
	} {
		q := cq.NewQuery("q", []string{"X"},
			cq.NewAtom("p", cq.V("X"), cq.C(pair[0])),
			cq.NewAtom("p", cq.V("X"), cq.C(pair[1])))
		rws, err := Rewrite(q, []View{v, w}, RewriteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rws) != 4 {
			t.Errorf("%s: %d rewritings, want 4:", name, len(rws))
			for _, rw := range rws {
				t.Logf("  %s", rw.Query)
			}
		}
	}
}

func TestRewriteViewWithConstantSelection(t *testing.T) {
	// View restricted to halevy cannot answer an unrestricted query
	// equivalently, but is a contained rewriting... our coverGoal rejects
	// binding a needed var to a view constant, so no rewriting at all.
	v := NewView("v_h", cq.MustParse("v(T, S) :- course(T, 'halevy', S)"))
	q := cq.MustParse("q(T, I) :- course(T, I, S)")
	rws, err := Rewrite(q, []View{v}, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) != 0 {
		t.Errorf("expected no rewriting, got %v", rws)
	}
}

func TestRewriteMaxRewritings(t *testing.T) {
	v1 := NewView("v1", cq.MustParse("v(T, I) :- course(T, I, S)"))
	v2 := NewView("v2", cq.MustParse("v(T, I) :- course(T, I, S)"))
	q := cq.MustParse("q(T, I) :- course(T, I, S)")
	rws, err := Rewrite(q, []View{v1, v2}, RewriteOptions{MaxRewritings: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rws) != 1 {
		t.Errorf("MaxRewritings ignored: %d", len(rws))
	}
}

func TestUpdategramApply(t *testing.T) {
	u := Updategram{
		Relation: "course",
		Inserts:  []relation.Tuple{{relation.SV("ML"), relation.SV("domingos"), relation.IV(70)}},
		Deletes:  []relation.Tuple{{relation.SV("OS"), relation.SV("levy"), relation.IV(30)}},
	}
	if u.IsEmpty() || u.Size() != 2 {
		t.Error("Size/IsEmpty broken")
	}
	if !(Updategram{Relation: "course"}).IsEmpty() {
		t.Error("an updategram without changes is not empty")
	}
}

// applyBase commits a base updategram to db the way a peer's commit
// does: deletes (every equal row) first, then inserts.
func applyBase(t *testing.T, db *relation.Database, u Updategram) {
	t.Helper()
	r := db.Get(u.Relation)
	for _, tu := range u.Deletes {
		r.Delete(tu)
	}
	if err := r.InsertBatch(u.Inserts); err != nil {
		t.Fatal(err)
	}
}

// viewDelta is the view's updategram for base update u between pre and
// post, through the same prepared update a network shares across views.
func viewDelta(m *MaterializedView, pre, post *relation.Database, u Updategram) (Updategram, error) {
	p, err := PrepareUpdate(pre, post, u)
	if err != nil {
		return Updategram{}, err
	}
	return m.DeltaFrom(p)
}

func TestMaterializedRefreshAndDelta(t *testing.T) {
	db := baseDB()
	v := NewView("cs_courses", cq.MustParse("v(T, I) :- course(T, I, S), person(I, 'cs')"))
	m := NewMaterialized(v)
	if err := m.ApplyDelta(Updategram{}); err == nil {
		t.Error("ApplyDelta before Refresh should fail")
	}
	if err := m.Refresh(db); err != nil {
		t.Fatal(err)
	}
	if m.Extent.Len() != 2 {
		t.Fatalf("extent = %v", m.Extent.Rows())
	}
	// Insert a new CS course and propagate incrementally.
	pre := db.Clone()
	u := Updategram{Relation: "course",
		Inserts: []relation.Tuple{{relation.SV("ML"), relation.SV("halevy"), relation.IV(70)}}}
	applyBase(t, db, u)
	d, err := viewDelta(m, pre, db, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserts) != 1 || len(d.Deletes) != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if err := m.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// Incremental result equals recompute.
	m2 := NewMaterialized(v)
	if err := m2.Refresh(db); err != nil {
		t.Fatal(err)
	}
	if !m.Extent.Equal(m2.Extent) {
		t.Errorf("incremental %v != recompute %v", m.Extent.Rows(), m2.Extent.Rows())
	}
}

func TestMaterializedDeleteDelta(t *testing.T) {
	db := baseDB()
	v := NewView("cs_courses", cq.MustParse("v(T, I) :- course(T, I, S), person(I, 'cs')"))
	m := NewMaterialized(v)
	if err := m.Refresh(db); err != nil {
		t.Fatal(err)
	}
	pre := db.Clone()
	u := Updategram{Relation: "course",
		Deletes: []relation.Tuple{{relation.SV("DB"), relation.SV("halevy"), relation.IV(40)}}}
	applyBase(t, db, u)
	d, err := viewDelta(m, pre, db, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Deletes) != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if err := m.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	m2 := NewMaterialized(v)
	if err := m2.Refresh(db); err != nil {
		t.Fatal(err)
	}
	if !m.Extent.Equal(m2.Extent) {
		t.Errorf("incremental %v != recompute %v", m.Extent.Rows(), m2.Extent.Rows())
	}
}

func TestMaterializedDeleteWithAlternateDerivation(t *testing.T) {
	// Tuple derivable two ways: deleting one derivation must NOT delete
	// the view tuple.
	db := relation.NewDatabase()
	r := relation.New(relation.NewSchema("r", relation.Attr("a"), relation.Attr("b")))
	r.MustInsert(relation.SV("x"), relation.SV("p"))
	r.MustInsert(relation.SV("x"), relation.SV("q"))
	db.Put(r)
	v := NewView("firsts", cq.MustParse("v(A) :- r(A, B)"))
	m := NewMaterialized(v)
	if err := m.Refresh(db); err != nil {
		t.Fatal(err)
	}
	pre := db.Clone()
	u := Updategram{Relation: "r",
		Deletes: []relation.Tuple{{relation.SV("x"), relation.SV("p")}}}
	applyBase(t, db, u)
	d, err := viewDelta(m, pre, db, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Deletes) != 0 {
		t.Errorf("spurious delete: %+v", d)
	}
}

func TestIncrementalEqualsRecomputeProperty(t *testing.T) {
	// Random updategram streams: incremental maintenance must always
	// match full recomputation (the E8 invariant).
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		db := relation.NewDatabase()
		r := relation.New(relation.NewSchema("edge", relation.Attr("a"), relation.Attr("b")))
		for i := 0; i < 6; i++ {
			r.MustInsert(randV(rnd), randV(rnd))
		}
		db.Put(r)
		v := NewView("paths", cq.MustParse("v(X, Z) :- edge(X, Y), edge(Y, Z)"))
		m := NewMaterialized(v)
		if err := m.Refresh(db); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			pre := db.Clone()
			u := Updategram{Relation: "edge"}
			if rnd.Intn(2) == 0 {
				u.Inserts = []relation.Tuple{{randV(rnd), randV(rnd)}}
			} else if r.Len() > 0 {
				u.Deletes = []relation.Tuple{r.Row(rnd.Intn(r.Len())).Clone()}
			}
			applyBase(t, db, u)
			d, err := viewDelta(m, pre, db, u)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			check := NewMaterialized(v)
			if err := check.Refresh(db); err != nil {
				t.Fatal(err)
			}
			if !m.Extent.Equal(check.Extent) {
				t.Fatalf("trial %d step %d: incremental %v != recompute %v",
					trial, step, m.Extent.Rows(), check.Extent.Rows())
			}
		}
	}
}

func randV(rnd *rand.Rand) relation.Value {
	return relation.SV(string(rune('a' + rnd.Intn(4))))
}

func TestViewDeltaUnrelatedRelation(t *testing.T) {
	db := baseDB()
	v := NewView("titles", cq.MustParse("v(T) :- course(T, I, S)"))
	m := NewMaterialized(v)
	if err := m.Refresh(db); err != nil {
		t.Fatal(err)
	}
	u := Updategram{Relation: "person",
		Inserts: []relation.Tuple{{relation.SV("new"), relation.SV("cs")}}}
	d, err := viewDelta(m, db, db, u)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsEmpty() {
		t.Errorf("unrelated update produced delta: %+v", d)
	}
}
