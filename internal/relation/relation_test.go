package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func courseSchema() Schema {
	return NewSchema("course", Attr("title"), Attr("instructor"), IntAttr("size"))
}

func TestValueBasics(t *testing.T) {
	if SV("a") == IV(0) {
		t.Error("string and int values must differ")
	}
	if !SV("a").Less(SV("b")) || SV("b").Less(SV("a")) {
		t.Error("string ordering broken")
	}
	if !IV(1).Less(IV(2)) || !FV(1.5).Less(FV(2.5)) {
		t.Error("numeric ordering broken")
	}
	if !IV(5).Less(FV(1)) {
		t.Error("cross-kind ordering should follow Kind")
	}
	if SV("x").Key() == SV("y").Key() {
		t.Error("distinct values must have distinct keys")
	}
	if IV(3).String() != "3" || FV(2.5).String() != "2.5" || SV("hi").String() != "hi" {
		t.Error("String rendering")
	}
	if SV("hi").Quoted() != "'hi'" || IV(3).Quoted() != "3" {
		t.Error("Quoted rendering")
	}
}

func TestParseValue(t *testing.T) {
	if v := ParseValue("'hello'"); v != SV("hello") {
		t.Errorf("ParseValue quoted = %v", v)
	}
	if v := ParseValue("42"); v != IV(42) {
		t.Errorf("ParseValue int = %v", v)
	}
	if v := ParseValue("2.5"); v != FV(2.5) {
		t.Errorf("ParseValue float = %v", v)
	}
	if v := ParseValue("plain"); v != SV("plain") {
		t.Errorf("ParseValue bare = %v", v)
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{SV("x"), IV(1)}
	b := Tuple{SV("x"), IV(1)}
	c := Tuple{SV("x"), IV(2)}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("Less broken")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples need distinct keys")
	}
	cl := a.Clone()
	cl[0] = SV("mutated")
	if a[0] != SV("x") {
		t.Error("Clone must deep-copy")
	}
	short := Tuple{SV("x")}
	if !short.Less(a) {
		t.Error("prefix tuple should be Less")
	}
	if a.String() != "(x, 1)" {
		t.Errorf("Tuple.String = %q", a.String())
	}
}

func TestSchema(t *testing.T) {
	s := courseSchema()
	if s.Arity() != 3 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if s.AttrIndex("instructor") != 1 || s.AttrIndex("missing") != -1 {
		t.Error("AttrIndex broken")
	}
	if !reflect.DeepEqual(s.AttrNames(), []string{"title", "instructor", "size"}) {
		t.Errorf("AttrNames = %v", s.AttrNames())
	}
	if err := s.Compatible(Tuple{SV("a"), SV("b"), IV(30)}); err != nil {
		t.Errorf("Compatible rejected valid: %v", err)
	}
	if err := s.Compatible(Tuple{SV("a"), SV("b")}); err == nil {
		t.Error("Compatible accepted wrong arity")
	}
	if err := s.Compatible(Tuple{SV("a"), SV("b"), SV("thirty")}); err == nil {
		t.Error("Compatible accepted wrong type")
	}
	c := s.Clone()
	c.Attrs[0].Name = "changed"
	if s.Attrs[0].Name != "title" {
		t.Error("Clone must deep-copy attrs")
	}
	want := "course(title:string, instructor:string, size:int)"
	if s.String() != want {
		t.Errorf("String = %q", s.String())
	}
}

func TestRelationInsertLookup(t *testing.T) {
	r := New(courseSchema())
	r.MustInsert(SV("DB"), SV("halevy"), IV(40))
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	r.MustInsert(SV("OS"), SV("halevy"), IV(30))
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.Insert(Tuple{SV("x")}); err == nil {
		t.Error("Insert accepted bad arity")
	}
	if !r.Contains(Tuple{SV("DB"), SV("halevy"), IV(40)}) {
		t.Error("Contains missed existing tuple")
	}
	if r.Contains(Tuple{SV("DB"), SV("halevy"), IV(41)}) {
		t.Error("Contains found absent tuple")
	}
}

func TestRelationDeleteDedup(t *testing.T) {
	r := New(courseSchema())
	row := Tuple{SV("DB"), SV("halevy"), IV(40)}
	r.MustInsert(row...)
	r.MustInsert(row...)
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	if n := r.Delete(row); n != 2 {
		t.Errorf("Delete = %d, want 2", n)
	}
	if r.Len() != 1 {
		t.Errorf("Len after delete = %d", r.Len())
	}
	r.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	r.Dedup()
	if r.Len() != 1 {
		t.Errorf("Len after dedup = %d", r.Len())
	}
}

func TestRelationEqualSort(t *testing.T) {
	a := New(courseSchema())
	a.MustInsert(SV("DB"), SV("halevy"), IV(40))
	a.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	b := New(courseSchema())
	b.MustInsert(SV("AI"), SV("etzioni"), IV(60))
	b.MustInsert(SV("DB"), SV("halevy"), IV(40))
	b.MustInsert(SV("DB"), SV("halevy"), IV(40)) // dup: set-equal anyway
	if !a.Equal(b) {
		t.Error("set equality should ignore order and duplicates")
	}
	b.MustInsert(SV("OS"), SV("levy"), IV(30))
	if a.Equal(b) {
		t.Error("Equal found equality after extra row")
	}
	a.SortRows()
	if a.Row(0)[0] != SV("AI") {
		t.Errorf("SortRows: first = %v", a.Row(0))
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Put(FromTuples(courseSchema(), Tuple{SV("DB"), SV("halevy"), IV(40)}))
	if db.Get("course") == nil || db.Get("missing") != nil {
		t.Error("Get broken")
	}
	r := db.GetOrCreate(NewSchema("people", Attr("name")))
	if r == nil || db.Get("people") == nil {
		t.Error("GetOrCreate failed")
	}
	if again := db.GetOrCreate(NewSchema("people", Attr("name"))); again != r {
		t.Error("GetOrCreate should return existing")
	}
	if !reflect.DeepEqual(db.Names(), []string{"course", "people"}) {
		t.Errorf("Names = %v", db.Names())
	}
	if len(db.Relations()) != 2 {
		t.Errorf("Relations = %v", db.Relations())
	}
	if db.Size() != 1 {
		t.Errorf("Size = %d", db.Size())
	}
	if err := db.Insert("course", Tuple{SV("AI"), SV("etzioni"), IV(60)}); err != nil {
		t.Errorf("Insert: %v", err)
	}
	if err := db.Insert("nope", Tuple{}); err == nil {
		t.Error("Insert into missing relation should fail")
	}
	cl := db.Clone()
	cl.Get("course").MustInsert(SV("X"), SV("y"), IV(1))
	if db.Get("course").Len() != 2 {
		t.Error("Clone must be deep")
	}
}

// TestLookupMatchesScanProperty holds a complete code-index probe — the
// packed rows plus a scan of the tail appended after packing — to a
// scan of the rows for the probe value, on random relations grown in
// two runs with the index packed between them.
func TestLookupMatchesScanProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			rows := make([][2]int, r.Intn(200))
			for i := range rows {
				rows[i] = [2]int{r.Intn(5), r.Intn(5)}
			}
			// Pack anywhere, or a few rows before the end, where the
			// index is reused with a short tail rather than re-packed.
			packAt := r.Intn(len(rows) + 1)
			if r.Intn(2) == 0 {
				packAt = max(0, len(rows)-r.Intn(4))
			}
			vals[0] = reflect.ValueOf(rows)
			vals[1] = reflect.ValueOf(packAt)
			vals[2] = reflect.ValueOf(r.Intn(5))
		},
	}
	f := func(rows [][2]int, packAt, probe int) bool {
		rel := New(NewSchema("t", IntAttr("a"), IntAttr("b")))
		for i, row := range rows {
			if i == packAt {
				rel.EnsureCodeIndex(0)
			}
			rel.MustInsert(IV(int64(row[0])), IV(int64(row[1])))
		}
		var scan, idx []int
		for i, row := range rel.Rows() {
			if row[0] == IV(int64(probe)) {
				scan = append(scan, i)
			}
		}
		ci := rel.EnsureCodeIndex(0)
		if code, ok := rel.Encoding().Code(0, IV(int64(probe))); ok {
			for _, id := range ci.Rows(code) {
				idx = append(idx, int(id))
			}
			base, tail := ci.Tail()
			for i, c := range tail {
				if c == code {
					idx = append(idx, base+i)
				}
			}
		}
		return reflect.DeepEqual(scan, idx)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
