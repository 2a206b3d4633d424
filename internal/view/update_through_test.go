package view

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/relation"
)

func updDB() *relation.Database {
	db := relation.NewDatabase()
	c := relation.New(relation.NewSchema("course",
		relation.Attr("title"), relation.Attr("instructor"), relation.Attr("dept")))
	c.MustInsert(relation.SV("DB"), relation.SV("halevy"), relation.SV("cs"))
	c.MustInsert(relation.SV("AI"), relation.SV("etzioni"), relation.SV("cs"))
	c.MustInsert(relation.SV("Anatomy"), relation.SV("gray"), relation.SV("med"))
	db.Put(c)
	return db
}

func TestTranslateInsertThroughSelection(t *testing.T) {
	db := updDB()
	// Selection view: CS courses with all columns exported.
	v := NewView("cs", cq.MustParse("v(T, I) :- course(T, I, 'cs')"))
	ups, err := TranslateUpdate(v, db, Updategram{
		Relation: "cs",
		Inserts:  []relation.Tuple{{relation.SV("ML"), relation.SV("domingos")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || len(ups[0].Inserts) != 1 {
		t.Fatalf("updates = %+v", ups)
	}
	got := ups[0].Inserts[0]
	// The selection constant is filled in.
	want := relation.Tuple{relation.SV("ML"), relation.SV("domingos"), relation.SV("cs")}
	if !got.Equal(want) {
		t.Errorf("translated = %v, want %v", got, want)
	}
}

func TestTranslateInsertThroughProjectionRejected(t *testing.T) {
	db := updDB()
	v := NewView("titles", cq.MustParse("v(T) :- course(T, I, D)"))
	_, err := TranslateUpdate(v, db, Updategram{
		Relation: "titles",
		Inserts:  []relation.Tuple{{relation.SV("ML")}},
	})
	if err == nil {
		t.Error("insert through projection must be rejected")
	}
}

func TestTranslateDeleteThroughProjection(t *testing.T) {
	db := updDB()
	v := NewView("bydept", cq.MustParse("v(D) :- course(T, I, D)"))
	ups, err := TranslateUpdate(v, db, Updategram{
		Relation: "bydept",
		Deletes:  []relation.Tuple{{relation.SV("cs")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || len(ups[0].Deletes) != 2 {
		t.Fatalf("deletes = %+v", ups)
	}
}

func TestTranslateJoinViewRejected(t *testing.T) {
	db := updDB()
	db.Put(relation.New(relation.NewSchema("person", relation.Attr("name"))))
	v := NewView("j", cq.MustParse("v(T, N) :- course(T, I, D), person(N)"))
	if _, err := TranslateUpdate(v, db, Updategram{Relation: "j",
		Inserts: []relation.Tuple{{relation.SV("x"), relation.SV("y")}}}); err == nil {
		t.Error("join view updates must be rejected")
	}
}

func TestTranslateArityAndUnknownBase(t *testing.T) {
	db := updDB()
	v := NewView("cs", cq.MustParse("v(T, I) :- course(T, I, 'cs')"))
	if _, err := TranslateUpdate(v, db, Updategram{
		Inserts: []relation.Tuple{{relation.SV("only_one")}}}); err == nil {
		t.Error("bad insert arity should fail")
	}
	if _, err := TranslateUpdate(v, db, Updategram{
		Deletes: []relation.Tuple{{relation.SV("a")}}}); err == nil {
		t.Error("bad delete arity should fail")
	}
	ghost := NewView("g", cq.MustParse("v(X) :- ghost(X)"))
	if _, err := TranslateUpdate(ghost, db, Updategram{}); err == nil {
		t.Error("unknown base relation should fail")
	}
	empty, err := TranslateUpdate(v, db, Updategram{})
	if err != nil || empty != nil {
		t.Errorf("empty updategram should translate to nothing: %v %v", empty, err)
	}
}

func TestTranslateDeleteRespectsSelection(t *testing.T) {
	// Deleting "cs" rows through a med-selection view touches nothing.
	db := updDB()
	v := NewView("med", cq.MustParse("v(T, I) :- course(T, I, 'med')"))
	ups, err := TranslateUpdate(v, db, Updategram{
		Relation: "med",
		Deletes:  []relation.Tuple{{relation.SV("DB"), relation.SV("halevy")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ups != nil {
		t.Errorf("selection mismatch should delete nothing: %+v", ups)
	}
}

func TestTranslateRepeatedVariable(t *testing.T) {
	db := relation.NewDatabase()
	e := relation.New(relation.NewSchema("edge", relation.Attr("a"), relation.Attr("b")))
	e.MustInsert(relation.SV("x"), relation.SV("x"))
	e.MustInsert(relation.SV("x"), relation.SV("y"))
	db.Put(e)
	v := NewView("loops", cq.MustParse("v(A) :- edge(A, A)"))
	ups, err := TranslateUpdate(v, db, Updategram{
		Relation: "loops",
		Deletes:  []relation.Tuple{{relation.SV("x")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || len(ups[0].Deletes) != 1 {
		t.Fatalf("updates = %+v", ups)
	}
	if !ups[0].Deletes[0].Equal(relation.Tuple{relation.SV("x"), relation.SV("x")}) {
		t.Errorf("deleted %v", ups[0].Deletes[0])
	}
}

// TestTranslateRepeatedHeadRefused pins the one translation that would
// change other view tuples: v(A, A) asked to insert or delete (x, y).
func TestTranslateRepeatedHeadRefused(t *testing.T) {
	db := updDB()
	v := NewView("twice", cq.MustParse("v(T, T) :- course(T, I, D)"))
	for _, u := range []Updategram{
		{Inserts: []relation.Tuple{{relation.SV("DB"), relation.SV("AI")}}},
		{Deletes: []relation.Tuple{{relation.SV("DB"), relation.SV("AI")}}},
	} {
		if _, err := TranslateUpdate(v, db, u); err == nil {
			t.Errorf("%+v through a repeated head variable accepted", u)
		}
	}
	ups, err := TranslateUpdate(v, db, Updategram{
		Deletes: []relation.Tuple{{relation.SV("DB"), relation.SV("DB")}}})
	if err != nil || len(ups) != 1 || len(ups[0].Deletes) != 1 {
		t.Errorf("agreeing delete: %+v, %v", ups, err)
	}
}

// TestTranslateUpdateNoSideEffects holds TranslateUpdate to its promise
// over random single-atom views — selection constants, repeated body
// and head variables, projections — and random updategrams: either the
// translation is refused, or applying it to the base (deletes, then
// inserts) leaves the view's extent at exactly its old extent minus the
// requested deletes plus the requested inserts.
func TestTranslateUpdateNoSideEffects(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	domain := []relation.Value{relation.SV("a"), relation.SV("b"), relation.IV(1), relation.IV(2)}
	pick := func() relation.Value { return domain[rng.Intn(len(domain))] }
	const cases = 10000
	accepted := 0
	for c := range cases {
		arity := 1 + rng.Intn(3)
		attrs := make([]relation.Attribute, arity)
		for i := range attrs {
			attrs[i] = relation.Attr(fmt.Sprintf("c%d", i))
			if rng.Intn(2) == 0 {
				attrs[i] = relation.IntAttr(attrs[i].Name)
			}
		}
		base := relation.New(relation.NewSchema("r", attrs...))
		typed := func(col int) relation.Value {
			if attrs[col].Type == relation.TInt {
				return relation.IV(int64(1 + rng.Intn(2)))
			}
			return relation.SV(string(rune('a' + rng.Intn(2))))
		}
		for range rng.Intn(7) {
			row := make(relation.Tuple, arity)
			for i := range row {
				row[i] = typed(i)
			}
			base.MustInsert(row...)
		}
		db := relation.NewDatabase()
		db.Put(base)

		args := make([]cq.Term, arity)
		var bodyVars []string
		for i := range args {
			if rng.Intn(3) == 0 {
				args[i] = cq.C(typed(i))
				continue
			}
			name := []string{"X", "Y", "Z"}[rng.Intn(3)]
			args[i] = cq.V(name)
			bodyVars = append(bodyVars, name)
		}
		if len(bodyVars) == 0 {
			args[0] = cq.V("X")
			bodyVars = append(bodyVars, "X")
		}
		head := make([]string, 1+rng.Intn(3))
		for i := range head {
			head[i] = bodyVars[rng.Intn(len(bodyVars))]
		}
		v := NewView("v", cq.NewQuery("v", head, cq.NewAtom("r", args...)))

		before := NewMaterialized(v)
		if err := before.Refresh(db); err != nil {
			t.Fatal(err)
		}
		viewTuple := func() relation.Tuple {
			if rows := before.Extent.Rows(); len(rows) > 0 && rng.Intn(2) == 0 {
				return rows[rng.Intn(len(rows))].Clone()
			}
			tu := make(relation.Tuple, len(head))
			for i := range tu {
				tu[i] = pick()
			}
			return tu
		}
		u := Updategram{Relation: "v"}
		for range rng.Intn(3) {
			u.Inserts = append(u.Inserts, viewTuple())
		}
		for range rng.Intn(3) {
			u.Deletes = append(u.Deletes, viewTuple())
		}

		ups, err := TranslateUpdate(v, db, u)
		if err != nil {
			continue
		}
		accepted++
		for _, bu := range ups {
			applyBase(t, db, bu)
		}
		after := NewMaterialized(v)
		if err := after.Refresh(db); err != nil {
			t.Fatal(err)
		}
		want := before.Extent.Clone()
		for _, tu := range u.Deletes {
			want.Delete(tu)
		}
		for _, tu := range u.Inserts {
			if !want.Contains(tu) {
				want.MustInsert(tu...)
			}
		}
		if !after.Extent.Equal(want) {
			t.Fatalf("case %d: %s with %+v: extent %v, want %v",
				c, v.Def, u, after.Extent.Rows(), want.Rows())
		}
	}
	if accepted < cases/4 {
		t.Errorf("only %d of %d updates accepted: the oracle saw too few translations", accepted, cases)
	}
	t.Logf("%d of %d random updates translated and checked", accepted, cases)
}
