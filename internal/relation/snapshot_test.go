package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// frozen is one snapshot under test together with what it must keep
// equalling: a deep Clone taken at the same instant.
type frozen struct {
	step  int
	snap  *Relation
	clone *Relation
}

// checkFrozen compares a snapshot with its clone and with a fresh
// re-encoding of the clone's rows: Rows, the code vectors, Dict.Code for
// present and absent values, every code's index rows (packed part plus
// tail), and Stats. It only reads the snapshot, the clone and private
// state, so readers may run it while the source keeps mutating.
func checkFrozen(f frozen, probes []Value) error {
	snap, want := f.snap, f.clone
	if snap.Len() != want.Len() {
		return fmt.Errorf("step %d: snapshot has %d rows, clone %d", f.step, snap.Len(), want.Len())
	}
	for i, row := range snap.Rows() {
		if !row.Equal(want.Row(i)) {
			return fmt.Errorf("step %d: row %d = %v, clone has %v", f.step, i, row, want.Row(i))
		}
	}
	fresh := FromTuples(want.Schema, want.Rows()...)
	d, wd, fd := snap.Encoding(), want.Encoding(), fresh.Encoding()
	if d == nil || wd == nil {
		return fmt.Errorf("step %d: encoding missing (snapshot %v, clone %v)", f.step, d != nil, wd != nil)
	}
	for col := 0; col < snap.Schema.Arity(); col++ {
		codes := d.Codes(col)
		if len(codes) != snap.Len() || d.Width(col) != fd.Width(col) || d.Width(col) != wd.Width(col) {
			return fmt.Errorf("step %d col %d: %d codes width %d, want %d codes width %d",
				f.step, col, len(codes), d.Width(col), snap.Len(), fd.Width(col))
		}
		for i, c := range codes {
			if c != fd.Codes(col)[i] || c != wd.Codes(col)[i] {
				return fmt.Errorf("step %d col %d row %d: code %d, fresh encoding %d, clone %d",
					f.step, col, i, c, fd.Codes(col)[i], wd.Codes(col)[i])
			}
		}
		for _, v := range probes {
			got, ok := d.Code(col, v)
			wantCode, wantOK := fd.Code(col, v)
			if ok != wantOK || (ok && got != wantCode) {
				return fmt.Errorf("step %d col %d: Code(%v) = %d,%v, fresh encoding says %d,%v",
					f.step, col, v, got, ok, wantCode, wantOK)
			}
		}
		ci := snap.EnsureCodeIndex(col)
		if ci == nil {
			return fmt.Errorf("step %d col %d: no code index on an encoded snapshot", f.step, col)
		}
		base, tail := ci.Tail()
		if base+len(tail) != snap.Len() {
			return fmt.Errorf("step %d col %d: index covers %d+%d rows of %d", f.step, col, base, len(tail), snap.Len())
		}
		wantRows := make([][]int32, d.Width(col))
		for i, c := range fd.Codes(col) {
			wantRows[c] = append(wantRows[c], int32(i))
		}
		for code := int32(0); int(code) < d.Width(col); code++ {
			got := append([]int32(nil), ci.Rows(code)...)
			for i, c := range tail {
				if c == code {
					got = append(got, int32(base+i))
				}
			}
			if !slices.Equal(got, wantRows[code]) {
				return fmt.Errorf("step %d col %d code %d: index rows %v (packed up to %d), want %v",
					f.step, col, code, got, base, wantRows[code])
			}
		}
	}
	gs, ws := snap.Stats(), want.Stats()
	if gs.Rows != ws.Rows || fmt.Sprint(gs.Distinct) != fmt.Sprint(ws.Distinct) {
		return fmt.Errorf("step %d: stats %+v, clone has %+v", f.step, gs, ws)
	}
	return nil
}

// TestSnapshotSharingProperty interleaves every mutation a source can
// take with SnapshotAs at random points, while readers verify the
// snapshots concurrently: each must keep equalling the deep Clone taken
// with it, whatever the source does afterwards. Half the snapshots are
// first read only at the end, newest first, so within a lineage older
// snapshots meet a packed index built past their own length. Run under
// -race: the shared row, code and value backings are exactly where an
// in-place rewrite would show. Seeds 7–12 start the source from
// DecodeColumns of its AppendColumns, with no row image, as recovery
// leaves a relation, so mutations land before its first row read.
func TestSnapshotSharingProperty(t *testing.T) {
	schema := NewSchema("r", Attr("k"), IntAttr("v"))
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randTuple := func() Tuple {
			return Tuple{SV(fmt.Sprintf("k%d", rng.Intn(40))), IV(int64(rng.Intn(400)))}
		}
		probes := []Value{SV("absent"), IV(-1)}
		for i := 0; i < 40; i += 3 {
			probes = append(probes, SV(fmt.Sprintf("k%d", i)), IV(int64(i*7)))
		}

		src := New(schema)
		var model []Tuple // what src must hold, kept by the plainest means
		var eager, lazy []frozen
		var mu sync.Mutex
		var failures []error
		var wg sync.WaitGroup
		// Start wide enough that the re-pack allowance (rows/repackFraction)
		// is a few rows: snapshots a few inserts apart then share one
		// packed index and differ only in their tails.
		for i := 0; i < 4*repackFraction; i++ {
			tu := randTuple()
			src.MustInsert(tu...)
			model = append(model, tu)
		}
		if seed > 6 {
			var err error
			if src, err = DecodeColumns(schema, AppendColumns(nil, src), 0); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 70:
				tu := randTuple()
				src.MustInsert(tu...)
				model = append(model, tu)
			case op < 80:
				batch := []Tuple{randTuple(), randTuple(), randTuple()}
				if err := src.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				model = append(model, batch...)
			case op < 90:
				victim := randTuple()
				if len(model) > 0 && rng.Intn(2) == 0 {
					victim = model[rng.Intn(len(model))]
				}
				removed := src.Delete(victim)
				kept := make([]Tuple, 0, len(model))
				for _, row := range model {
					if !row.Equal(victim) {
						kept = append(kept, row)
					}
				}
				if removed != len(model)-len(kept) {
					t.Fatalf("seed %d step %d: Delete removed %d, model says %d", seed, step, removed, len(model)-len(kept))
				}
				model = kept
			case op < 95:
				src.Dedup()
				seen := newTupleSet(len(model), make([]Tuple, 0, len(model)))
				for _, row := range model {
					seen.add(row)
				}
				model = seen.rows
			default:
				src.SortRows()
				model = append([]Tuple(nil), model...)
				sort.SliceStable(model, func(i, j int) bool { return model[i].Less(model[j]) })
			}
			if rng.Intn(3) != 0 {
				continue
			}
			f := frozen{step: step, snap: src.SnapshotAs("snap"), clone: src.Clone()}
			if rng.Intn(2) == 0 {
				lazy = append(lazy, f)
				continue
			}
			eager = append(eager, f)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 3; pass++ {
					if err := checkFrozen(f, probes); err != nil {
						mu.Lock()
						failures = append(failures, err)
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range failures {
			t.Errorf("seed %d, concurrent reader: %v", seed, err)
		}
		for i := len(lazy) - 1; i >= 0; i-- {
			if err := checkFrozen(lazy[i], probes); err != nil {
				t.Errorf("seed %d, first read after the fact: %v", seed, err)
			}
		}
		for _, f := range eager {
			if err := checkFrozen(f, probes); err != nil {
				t.Errorf("seed %d, re-read at the end: %v", seed, err)
			}
		}
		// The source itself took every mutation correctly.
		if src.Len() != len(model) {
			t.Fatalf("seed %d: source has %d rows, model %d", seed, src.Len(), len(model))
		}
		if err := checkFrozen(frozen{step: -1, snap: src, clone: FromTuples(schema, model...)}, probes); err != nil {
			t.Errorf("seed %d, source against its model: %v", seed, err)
		}
	}
}

// TestCodeIndexSharedAlongLineage pins the three cases EnsureCodeIndex
// distinguishes: a snapshot a few rows past the lineage's packed index
// reuses it and scans a tail, one far past it re-packs, and one older
// than it packs privately.
func TestCodeIndexSharedAlongLineage(t *testing.T) {
	src := New(NewSchema("r", Attr("k"), IntAttr("v")))
	insert := func(n int) {
		for i := 0; i < n; i++ {
			src.MustInsert(SV(fmt.Sprintf("k%d", src.Len()%9)), IV(int64(src.Len())))
		}
	}
	m := 10 * repackFraction
	insert(m - 5)
	old := src.SnapshotAs("old")
	insert(5)
	at := src.SnapshotAs("at")
	base, tail := at.EnsureCodeIndex(0).Tail()
	if base != m || len(tail) != 0 {
		t.Fatalf("first index: packed %d rows with a %d-row tail, want %d and none", base, len(tail), m)
	}
	insert(10) // the allowance at m rows: m/repackFraction
	near := src.SnapshotAs("near")
	if base, tail = near.EnsureCodeIndex(0).Tail(); base != m || len(tail) != 10 {
		t.Errorf("within the allowance: packed %d rows with a %d-row tail, want the shared %d and 10", base, len(tail), m)
	}
	if &near.EnsureCodeIndex(0).rows[0] != &at.EnsureCodeIndex(0).rows[0] {
		t.Errorf("within the allowance: the packed rows were rebuilt, not shared")
	}
	insert(1)
	far := src.SnapshotAs("far")
	if base, tail = far.EnsureCodeIndex(0).Tail(); base != m+11 || len(tail) != 0 {
		t.Errorf("past the allowance: packed %d rows with a %d-row tail, want a re-pack at %d", base, len(tail), m+11)
	}
	if base, tail = old.EnsureCodeIndex(0).Tail(); base != m-5 || len(tail) != 0 {
		t.Errorf("older than the lineage's index: packed %d rows with a %d-row tail, want a private pack at %d", base, len(tail), m-5)
	}
	if base, _ = src.SnapshotAs("again").EnsureCodeIndex(0).Tail(); base != m+11 {
		t.Errorf("the private pack of an old snapshot replaced the lineage's newer index (packed %d)", base)
	}
}

// TestApplyChanges pins the verified apply: a run of inserts advances the
// relation in place, a run with a delete builds a replacement, and every
// kind of inconsistent run is refused with the relation left exactly as
// it was.
func TestApplyChanges(t *testing.T) {
	schema := NewSchema("r", Attr("k"), IntAttr("v"))
	build := func() *Relation {
		r := New(schema)
		for i := 0; i < 5; i++ {
			r.MustInsert(SV(fmt.Sprintf("k%d", i)), IV(int64(i)))
		}
		return r
	}
	ins := func(ver uint64, rows int, k string) ChangeRecord {
		return ChangeRecord{Op: ChangeInsert, Rel: "r", Ver: ver, Rows: rows, Tuple: Tuple{SV(k), IV(int64(rows))}}
	}
	del := func(ver uint64, rows int, k string, v int64) ChangeRecord {
		return ChangeRecord{Op: ChangeDelete, Rel: "r", Ver: ver, Rows: rows, Tuple: Tuple{SV(k), IV(v)}}
	}

	r := build() // version 5, 5 rows
	snap := r.SnapshotAs("before")
	got, err := r.ApplyChanges([]ChangeRecord{ins(6, 6, "a"), ins(9, 7, "b")})
	if err != nil || got != r {
		t.Fatalf("insert run: relation %p err %v, want %p advanced in place", got, err, r)
	}
	if r.Version() != 9 || r.Len() != 7 || snap.Len() != 5 {
		t.Errorf("insert run: (version, rows) = (%d, %d), snapshot %d rows; want (9, 7) and 5", r.Version(), r.Len(), snap.Len())
	}
	got, err = r.ApplyChanges([]ChangeRecord{ins(10, 8, "c"), del(11, 7, "k1", 1), ins(12, 8, "d")})
	if err != nil || got == r {
		t.Fatalf("delete run: relation %p err %v, want a replacement of %p", got, err, r)
	}
	if got.Version() != 12 || got.Len() != 8 || got.Schema.Name != "r" || r.Version() != 9 || r.Len() != 7 {
		t.Errorf("delete run: replacement %s (%d, %d), original (%d, %d); want r (12, 8) and (9, 7)",
			got.Schema.Name, got.Version(), got.Len(), r.Version(), r.Len())
	}
	checkEncoded(t, got)
	if got.Contains(Tuple{SV("k1"), IV(1)}) || !r.Contains(Tuple{SV("k1"), IV(1)}) {
		t.Errorf("delete run: the deleted tuple is in the replacement, or gone from the original")
	}
	if same, err := r.ApplyChanges(nil); err != nil || same != r {
		t.Errorf("empty run: %p, %v", same, err)
	}

	for name, run := range map[string][]ChangeRecord{
		"wrong relation":        {ins(6, 6, "a"), {Op: ChangeInsert, Rel: "other", Ver: 7, Rows: 7, Tuple: Tuple{SV("b"), IV(7)}}},
		"version not advancing": {ins(6, 6, "a"), ins(6, 7, "b")},
		"stale first version":   {ins(5, 6, "a")},
		"row count mismatch":    {ins(6, 6, "a"), ins(7, 9, "b")},
		"incompatible tuple":    {ins(6, 6, "a"), {Op: ChangeInsert, Rel: "r", Ver: 7, Rows: 7, Tuple: Tuple{IV(1), IV(2)}}},
		"absent delete":         {ins(6, 6, "a"), del(7, 5, "nope", 0)},
		"schema record":         {ins(6, 6, "a"), {Op: ChangeSchema, Rel: "r", Ver: 7, Schema: schema}},
	} {
		r := build()
		before := fmt.Sprint(r.Rows())
		got, err := r.ApplyChanges(run)
		if err == nil || got != nil {
			t.Errorf("%s: applied (%v, %v), want a refusal", name, got, err)
		}
		if r.Version() != 5 || fmt.Sprint(r.Rows()) != before {
			t.Errorf("%s: the refused run changed the relation: version %d rows %v", name, r.Version(), r.Rows())
		}
		checkEncoded(t, r)
	}
}
