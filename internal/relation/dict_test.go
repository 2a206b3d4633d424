package relation

import (
	"fmt"
	"sync"
	"testing"
)

func dictSchema() Schema {
	return NewSchema("r", Attr("a"), IntAttr("b"))
}

// checkEncoded asserts the relation's encoding is present and decodes
// back to exactly the current rows.
func checkEncoded(t *testing.T, r *Relation) *Dict {
	t.Helper()
	d := r.Encoding()
	if d == nil {
		t.Fatalf("Encoding() = nil, want a current encoding (%d rows)", r.Len())
	}
	if d.Len() != r.Len() {
		t.Fatalf("Dict.Len() = %d, want %d", d.Len(), r.Len())
	}
	for col := 0; col < r.Schema.Arity(); col++ {
		codes := d.Codes(col)
		if len(codes) != r.Len() {
			t.Fatalf("col %d: %d codes for %d rows", col, len(codes), r.Len())
		}
		for i, row := range r.Rows() {
			if got := d.Value(col, codes[i]); got != row[col] {
				t.Fatalf("col %d row %d: decode(%d) = %v, want %v", col, i, codes[i], got, row[col])
			}
			code, ok := d.Code(col, row[col])
			if !ok || code != codes[i] {
				t.Fatalf("col %d row %d: Code(%v) = %d,%v, want %d,true", col, i, row[col], code, ok, codes[i])
			}
		}
	}
	return d
}

func TestDictMaintainedOnInsert(t *testing.T) {
	r := New(dictSchema())
	checkEncoded(t, r) // empty relations are encoded (trivially)
	for i := 0; i < 50; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%7)), IV(int64(i)))
	}
	d := checkEncoded(t, r)
	if w := d.Width(0); w != 7 {
		t.Errorf("Width(0) = %d, want 7", w)
	}
	if w := d.Width(1); w != 50 {
		t.Errorf("Width(1) = %d, want 50", w)
	}
	if _, ok := d.Code(0, SV("nope")); ok {
		t.Errorf("Code of an absent value reported present")
	}
}

func TestDictLifecycle(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 20; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%3)), IV(int64(i%5)))
	}
	r.Delete(Tuple{SV("k1"), IV(1)})
	checkEncoded(t, r)
	r.Dedup()
	checkEncoded(t, r)
	r.SortRows()
	checkEncoded(t, r)
}

// TestEncodeOnDemand covers the relations that maintain no encoding as
// rows arrive — NewResult relations filled row by row and in a batch,
// and a relation nothing was inserted into yet: the first Encoding call builds it in
// one pass, the relation keeps it (same *Dict on every later call), and
// Insert maintains it in place from then on.
func TestEncodeOnDemand(t *testing.T) {
	res := NewResult(dictSchema())
	swapped := NewResult(NewSchema("swapped", IntAttr("b"), Attr("a")))
	batch := NewResult(dictSchema())
	var swappedRows, batchRows []Tuple
	for i := 0; i < 20; i++ {
		row := Tuple{SV(fmt.Sprintf("k%d", i%3)), IV(int64(i % 5))}
		res.MustInsert(row...)
		swappedRows = append(swappedRows, Tuple{row[1], row[0]})
		if row[1] != IV(0) {
			batchRows = append(batchRows, row)
		}
	}
	if err := swapped.InsertBatch(swappedRows); err != nil {
		t.Fatal(err)
	}
	if err := batch.InsertBatch(batchRows); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Relation{
		"NewResult": res, "swapped": swapped, "batch": batch, "empty": New(dictSchema()),
	} {
		if r.dict != nil {
			t.Errorf("%s: paid for an encoding before anything asked for one", name)
		}
		d := checkEncoded(t, r)
		if again := r.Encoding(); again != d {
			t.Errorf("%s: second Encoding call returned a different Dict", name)
		}
		row := Tuple{SV("late"), IV(7)}
		if name == "swapped" {
			row = Tuple{IV(7), SV("late")}
		}
		r.MustInsert(row...)
		if after := checkEncoded(t, r); after != d {
			t.Errorf("%s: Insert after first use replaced the Dict instead of extending it", name)
		}
		if r.Len() > 16 && r.EnsureCodeIndex(0) == nil {
			t.Errorf("%s: EnsureCodeIndex = nil after the encoding was built", name)
		}
	}
	if NewResult(dictSchema()).EnsureCodeIndex(0) == nil {
		t.Errorf("EnsureCodeIndex on an unencoded relation did not build the encoding")
	}
}

// TestEncodeOnDemandConcurrent races the first Encoding and
// EnsureCodeIndex calls on one shared unencoded relation: the
// check-and-build is atomic, so every caller gets the same Dict. Run
// with -race.
func TestEncodeOnDemandConcurrent(t *testing.T) {
	res := NewResult(dictSchema())
	for i := 0; i < 200; i++ {
		res.MustInsert(SV(fmt.Sprintf("k%d", i%11)), IV(int64(i%7)))
	}
	const workers = 8
	dicts := make([]*Dict, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				res.EnsureCodeIndex(g / 2 % 2)
			}
			dicts[g] = res.Encoding()
		}(g)
	}
	close(start)
	wg.Wait()
	for g, d := range dicts {
		if d != dicts[0] {
			t.Errorf("worker %d got a different Dict than worker 0", g)
		}
	}
	checkEncoded(t, res)
}

func TestDictSnapshotAndCloneIndependence(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 10; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i)), IV(int64(i)))
	}
	snap := r.SnapshotAs("snap")
	cl := r.Clone()
	r.MustInsert(SV("new"), IV(99))
	checkEncoded(t, r)
	d := checkEncoded(t, snap)
	if _, ok := d.Code(0, SV("new")); ok {
		t.Errorf("snapshot encoding sees a value inserted after the snapshot")
	}
	checkEncoded(t, cl)
}

func TestCodeIndex(t *testing.T) {
	r := New(dictSchema())
	for i := 0; i < 40; i++ {
		r.MustInsert(SV(fmt.Sprintf("k%d", i%5)), IV(int64(i)))
	}
	ci := r.EnsureCodeIndex(0)
	if ci == nil {
		t.Fatal("EnsureCodeIndex = nil on an encoded relation")
	}
	if again := r.EnsureCodeIndex(0); again != ci {
		t.Errorf("EnsureCodeIndex rebuilt instead of returning the cached index")
	}
	d := r.Encoding()
	for code := int32(0); int(code) < d.Width(0); code++ {
		var want []int
		for i, row := range r.Rows() {
			if row[0] == d.Value(0, code) {
				want = append(want, i)
			}
		}
		got := ci.Rows(code)
		if len(got) != len(want) {
			t.Fatalf("code %d: %d rows, want %d", code, len(got), len(want))
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("code %d row %d: id %d, want %d", code, i, got[i], want[i])
			}
		}
	}
	if ci.Rows(int32(d.Width(0))) != nil || ci.Rows(-1) != nil {
		t.Errorf("out-of-dictionary code returned rows")
	}
	// Mutation drops the cache; the rebuilt index covers the new row.
	r.MustInsert(SV("k0"), IV(999))
	ci2 := r.EnsureCodeIndex(0)
	if ci2 == ci {
		t.Errorf("code index not invalidated by Insert")
	}
	code, _ := r.Encoding().Code(0, SV("k0"))
	rows := ci2.Rows(code)
	if len(rows) == 0 || int(rows[len(rows)-1]) != r.Len()-1 {
		t.Errorf("rebuilt index misses the appended row: %v", rows)
	}
}

func TestCodeSet(t *testing.T) {
	s := NewCodeSet(4)
	buf := []int32{1, 2, 3}
	if !s.Add(buf) {
		t.Fatal("first Add = false")
	}
	buf[0], buf[1], buf[2] = 9, 9, 9 // set must have copied
	if !s.Add([]int32{9, 9, 9}) {
		t.Fatal("Add of a fresh vector = false after caller reused the buffer")
	}
	if s.Add([]int32{1, 2, 3}) {
		t.Fatal("duplicate Add = true")
	}
	if s.Add([]int32{9, 9, 9}) {
		t.Fatal("duplicate Add = true")
	}
	if !s.Add([]int32{1, 2, 4}) || !s.Add([]int32{0, 2, 3}) {
		t.Fatal("distinct vectors rejected")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Cross a slab boundary.
	big := NewCodeSet(16)
	for i := int32(0); i < 3000; i++ {
		if !big.Add([]int32{i, i + 1}) {
			t.Fatalf("vector %d rejected", i)
		}
	}
	for i := int32(0); i < 3000; i++ {
		if big.Add([]int32{i, i + 1}) {
			t.Fatalf("vector %d not found after slab growth", i)
		}
	}
}
