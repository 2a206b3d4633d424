package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// bulkWidths are the column widths the bulk-load differential draws
// from: both sides of smallDictWidth, one past it, and one wide enough
// for a saturated sketch. Width 0 is the empty batch.
var bulkWidths = []int{0, 1, 7, 8, 9, 200}

// bulkSchema types its columns string, int, float, string, … so every
// Value kind is encoded.
func bulkSchema(arity int) Schema {
	attrs := make([]Attribute, arity)
	for c := range attrs {
		name := fmt.Sprintf("c%d", c)
		switch c % 3 {
		case 0:
			attrs[c] = Attr(name)
		case 1:
			attrs[c] = IntAttr(name)
		default:
			attrs[c] = FloatAttr(name)
		}
	}
	return NewSchema("bulk", attrs...)
}

// bulkValue is the i-th value of a column of the given type; i past the
// width generated from gives the misses Code is probed with.
func bulkValue(typ Type, i int) Value {
	switch typ {
	case TInt:
		return IV(int64(i*7 - 3))
	case TFloat:
		return FV(float64(i) + 0.5)
	}
	return SV(fmt.Sprintf("v%d", i))
}

// bulkRows generates n rows whose column c holds exactly widths[c]
// distinct values (every value appears once before any repeats, then
// the rows are shuffled), with duplicate rows mixed in.
func bulkRows(rng *rand.Rand, s Schema, widths []int, n int) []Tuple {
	rows := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			rows = append(rows, rows[rng.Intn(len(rows))].Clone())
			continue
		}
		t := make(Tuple, s.Arity())
		for c := range t {
			k := i % widths[c]
			if i >= widths[c] {
				k = rng.Intn(widths[c])
			}
			t[c] = bulkValue(s.Attrs[c].Type, k)
		}
		rows = append(rows, t)
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// encodeMap returns the column's encode map, nil when none was made.
func encodeMap(d *Dict, col int) map[Value]int32 {
	if d.lin == nil {
		return nil
	}
	return d.lin.cols[col].m
}

// sameRelation fails unless got holds exactly what want holds: rows,
// statistics (sketch bits included), dictionary codes, decode tables
// and encode maps, Code answers for present and absent values, and the
// code indexes. Versions are compared only when withVersion is set.
func sameRelation(t *testing.T, label string, want, got *Relation, withVersion bool) {
	t.Helper()
	if len(want.Rows())+len(got.Rows()) > 0 && !reflect.DeepEqual(want.Rows(), got.Rows()) { // nil and empty alike
		t.Fatalf("%s: rows differ", label)
	}
	ws, gs := want.Stats(), got.Stats()
	if withVersion && ws.Version != gs.Version {
		t.Fatalf("%s: version %d, want %d", label, gs.Version, ws.Version)
	}
	ws.Version, gs.Version = 0, 0
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: stats %+v, want %+v", label, gs, ws)
	}
	if !reflect.DeepEqual(want.sketches, got.sketches) {
		t.Fatalf("%s: sketch bits differ", label)
	}
	wd, gd := want.Encoding(), got.Encoding()
	if wd.Len() != gd.Len() {
		t.Fatalf("%s: encoded %d rows, want %d", label, gd.Len(), wd.Len())
	}
	for col := range want.Schema.Attrs {
		if !reflect.DeepEqual(wd.cols[col].codes, gd.cols[col].codes) ||
			!reflect.DeepEqual(wd.cols[col].vals, gd.cols[col].vals) {
			t.Fatalf("%s: column %d codes or decode table differ", label, col)
		}
		wm, gm := encodeMap(wd, col), encodeMap(gd, col)
		if (wm == nil) != (gm == nil) || !reflect.DeepEqual(wm, gm) {
			t.Fatalf("%s: column %d encode map %v, want %v", label, col, gm, wm)
		}
		for i := 0; i < 210; i++ {
			v := bulkValue(want.Schema.Attrs[col].Type, i)
			wc, wok := wd.Code(col, v)
			gc, gok := gd.Code(col, v)
			if wc != gc || wok != gok {
				t.Fatalf("%s: Code(%d, %v) = %d,%v, want %d,%v", label, col, v, gc, gok, wc, wok)
			}
		}
		wi, gi := want.EnsureCodeIndex(col), got.EnsureCodeIndex(col)
		for code := int32(0); int(code) <= wd.Width(col); code++ {
			if !reflect.DeepEqual(wi.Rows(code), gi.Rows(code)) {
				t.Fatalf("%s: column %d code index rows of %d differ", label, col, code)
			}
		}
		wb, wt := wi.Tail()
		gb, gt := gi.Tail()
		if wb != gb || !reflect.DeepEqual(wt, gt) {
			t.Fatalf("%s: column %d code index tail differs", label, col)
		}
	}
}

// TestInsertBatchMatchesInsert is the bulk ≡ incremental differential:
// a batch loaded through InsertBatch — onto an empty relation or after
// rows inserted one by one — must leave exactly the relation an Insert
// per row leaves, and the two must stay identical as both go on through
// Insert, Delete, SnapshotAs and ApplyChanges.
func TestInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for arity := 1; arity <= 4; arity++ {
		s := bulkSchema(arity)
		for wi, w := range bulkWidths {
			for _, prefix := range []int{0, 1, 8, 150} {
				label := fmt.Sprintf("arity %d width %d prefix %d", arity, w, prefix)
				widths := make([]int, arity)
				for c := range widths {
					widths[c] = bulkWidths[(wi+c)%len(bulkWidths)]
					if widths[c] == 0 {
						widths[c] = bulkWidths[len(bulkWidths)-1]
					}
				}
				n := 0
				if w > 0 {
					n = 2*w + rng.Intn(40)
				}
				rows := bulkRows(rng, s, widths, prefix+n)
				inc, bulk := New(s), New(s)
				for _, row := range rows[:prefix] {
					inc.MustInsert(row...)
					bulk.MustInsert(row...)
				}
				for _, row := range rows[prefix:] {
					inc.MustInsert(row...)
				}
				before := bulk.Version()
				if err := bulk.InsertBatch(rows[prefix:]); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want := before + uint64(min(n, 1)); bulk.Version() != want {
					t.Fatalf("%s: InsertBatch left version %d, want %d", label, bulk.Version(), want)
				}
				sameRelation(t, label, inc, bulk, false)
				bulk.RestoreVersion(inc.Version())
				sameRelation(t, label+" restored", inc, bulk, true)
				inc, bulk = continueBoth(t, rng, label, s, widths, inc, bulk)
				sameRelation(t, label+" continued", inc, bulk, true)
			}
		}
	}
}

// continueBoth drives the same seeded script of Insert, Delete,
// SnapshotAs and ApplyChanges through both relations, comparing them
// (and every snapshot taken) as it goes, and returns where each ended.
func continueBoth(t *testing.T, rng *rand.Rand, label string, s Schema, widths []int, inc, bulk *Relation) (*Relation, *Relation) {
	t.Helper()
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(4); op {
		case 0:
			row := bulkRows(rng, s, widths, 1)[0]
			inc.MustInsert(row...)
			bulk.MustInsert(row...)
		case 1:
			if inc.Len() == 0 {
				continue
			}
			victim := inc.Row(rng.Intn(inc.Len())).Clone()
			if a, b := inc.Delete(victim), bulk.Delete(victim); a != b {
				t.Fatalf("%s step %d: Delete removed %d, want %d", label, step, b, a)
			}
		case 2:
			name := fmt.Sprintf("snap%d", step)
			sameRelation(t, fmt.Sprintf("%s step %d snapshot", label, step), inc.SnapshotAs(name), bulk.SnapshotAs(name), true)
		case 3:
			var recs []ChangeRecord
			ver, rows := inc.Version(), inc.Len()
			for _, row := range bulkRows(rng, s, widths, 1+rng.Intn(4)) {
				ver, rows = ver+1, rows+1
				recs = append(recs, ChangeRecord{Op: ChangeInsert, Rel: s.Name, Ver: ver, Rows: rows, Tuple: row})
			}
			if inc.Len() > 0 && rng.Intn(2) == 0 {
				victim := inc.Row(0).Clone()
				removed := 0
				for _, row := range inc.Rows() {
					if row.Equal(victim) {
						removed++
					}
				}
				for _, rec := range recs {
					if rec.Tuple.Equal(victim) {
						removed++
					}
				}
				ver, rows = ver+1, rows-removed
				recs = append(recs, ChangeRecord{Op: ChangeDelete, Rel: s.Name, Ver: ver, Rows: rows, Tuple: victim})
			}
			var err error
			if inc, err = inc.ApplyChanges(recs); err != nil {
				t.Fatalf("%s step %d: incremental apply: %v", label, step, err)
			}
			if bulk, err = bulk.ApplyChanges(recs); err != nil {
				t.Fatalf("%s step %d: bulk apply: %v", label, step, err)
			}
		}
		sameRelation(t, fmt.Sprintf("%s step %d", label, step), inc, bulk, true)
	}
	return inc, bulk
}

// TestInsertBatchRefusalChangesNothing: a batch holding one tuple the
// schema refuses returns that error and leaves the relation exactly as
// it was — rows, backing array, version, statistics and encoding.
func TestInsertBatchRefusalChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := bulkSchema(3)
	widths := []int{9, 200, 7}
	for _, bad := range []Tuple{
		{SV("x"), IV(1)},             // arity
		{IV(1), IV(2), FV(3)},        // kind
		{SV("x"), IV(2), SV("nope")}, // kind in the last column
	} {
		r := New(s)
		if err := r.InsertBatch(bulkRows(rng, s, widths, 300)); err != nil {
			t.Fatal(err)
		}
		want := r.SnapshotAs("want")
		rowsBefore, verBefore, dictBefore := r.Rows(), r.Version(), r.dict
		batch := bulkRows(rng, s, widths, 50)
		batch[25] = bad
		if err := r.InsertBatch(batch); err == nil {
			t.Fatalf("batch with %v accepted", bad)
		}
		if got := r.Rows(); len(got) != len(rowsBefore) || cap(got) != cap(rowsBefore) || &got[0] != &rowsBefore[0] {
			t.Fatalf("refused batch moved the rows: len %d cap %d", len(got), cap(got))
		}
		if r.Version() != verBefore || r.dict != dictBefore || r.encRows != r.Len() || r.statRows != r.Len() {
			t.Fatalf("refused batch changed version, dictionary or maintenance state")
		}
		want.RestoreVersion(verBefore)
		sameRelation(t, fmt.Sprintf("refused %v", bad), want, r, true)
	}
}
