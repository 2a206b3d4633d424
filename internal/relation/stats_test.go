package relation

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func statsSchema() Schema {
	return NewSchema("t", Attr("a"), Attr("b"))
}

func TestSketchExactBelowK(t *testing.T) {
	var s colSketch
	for i := 0; i < sketchK-1; i++ {
		s.add(SV(fmt.Sprintf("v%d", i)).Hash())
		s.add(SV(fmt.Sprintf("v%d", i)).Hash()) // duplicates must not count
	}
	if got := s.distinct(); got != float64(sketchK-1) {
		t.Fatalf("distinct = %v, want exact %d", got, sketchK-1)
	}
}

func TestSketchEstimateAboveK(t *testing.T) {
	var s colSketch
	const n = 20000
	for i := 0; i < n; i++ {
		s.add(SV(fmt.Sprintf("value-%d", i)).Hash())
	}
	got := s.distinct()
	// KMV with k=64 has ~13% relative standard error; allow 4 sigma.
	if math.Abs(got-n)/n > 0.5 {
		t.Fatalf("distinct = %.0f, want within 50%% of %d", got, n)
	}
}

func TestStatsMaintainedOnInsert(t *testing.T) {
	r := New(statsSchema())
	for i := 0; i < 100; i++ {
		r.MustInsert(SV(fmt.Sprintf("a%d", i)), SV(fmt.Sprintf("b%d", i%5)))
	}
	st := r.Stats()
	if st.Rows != 100 || st.Distinct == nil {
		t.Fatalf("stats = %+v, want 100 rows with distinct estimates", st)
	}
	if got := st.Distinct[1]; got != 5 {
		t.Fatalf("distinct(b) = %v, want exact 5", got)
	}
	if got := st.Distinct[0]; math.Abs(got-100)/100 > 0.5 {
		t.Fatalf("distinct(a) = %v, want ≈100", got)
	}
	if st.Version != r.Version() {
		t.Fatalf("stats version %d != relation version %d", st.Version, r.Version())
	}
}

// TestStatsAbsentWhenRowsBypassInsert covers the rows that reach a
// relation without being sketched: a NewResult relation's batch, and
// the copies SnapshotAs and Clone write directly. None of them may
// report statistics, and no later Delete or Dedup may resurrect them.
func TestStatsAbsentWhenRowsBypassInsert(t *testing.T) {
	res := NewResult(statsSchema())
	var rows []Tuple
	for i := 0; i < 20; i++ {
		rows = append(rows, Tuple{SV(fmt.Sprintf("a%d", i%10)), SV("b")})
	}
	if err := res.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	snap, clone := res.SnapshotAs("snap"), res.Clone()
	for name, r := range map[string]*Relation{"batch": res, "SnapshotAs": snap, "Clone": clone} {
		if st := r.Stats(); st.Distinct != nil || st.Rows != 20 {
			t.Fatalf("%s stats = %+v, want 20 rows and absent (nil Distinct)", name, st)
		}
		r.Delete(Tuple{SV("a0"), SV("b")})
		r.Dedup()
		if r.HasStats() {
			t.Fatalf("%s: Delete or Dedup resurrected stats", name)
		}
	}
}

func TestStatsCarryThroughSnapshotAndClone(t *testing.T) {
	r := New(statsSchema())
	for i := 0; i < 30; i++ {
		r.MustInsert(SV(fmt.Sprintf("a%d", i)), SV(fmt.Sprintf("b%d", i%3)))
	}
	snap := r.SnapshotAs("peer.t")
	if st := snap.Stats(); st.Distinct == nil || st.Distinct[1] != 3 {
		t.Fatalf("snapshot stats = %+v, want distinct(b)=3", st)
	}
	clone := r.Clone()
	if st := clone.Stats(); st.Distinct == nil || st.Distinct[1] != 3 {
		t.Fatalf("clone stats = %+v, want distinct(b)=3", st)
	}
	// Snapshot stats must be independent of later source inserts.
	r.MustInsert(SV("new"), SV("b99"))
	if st := snap.Stats(); st.Rows != 30 || st.Distinct[1] != 3 {
		t.Fatalf("snapshot stats drifted after source insert: %+v", st)
	}
}

func TestStatsRebuiltAfterDeleteAndDedup(t *testing.T) {
	r := New(statsSchema())
	for i := 0; i < 10; i++ {
		r.MustInsert(SV(fmt.Sprintf("a%d", i)), SV("dup"))
	}
	r.MustInsert(SV("a0"), SV("dup")) // duplicate row
	if got := r.Delete(Tuple{SV("a9"), SV("dup")}); got != 1 {
		t.Fatalf("Delete removed %d, want 1", got)
	}
	st := r.Stats()
	if st.Distinct == nil || st.Rows != 10 {
		t.Fatalf("stats after delete = %+v, want 10 rows with estimates", st)
	}
	if st.Distinct[0] != 9 {
		t.Fatalf("distinct(a) after delete = %v, want 9", st.Distinct[0])
	}
	r.Dedup()
	st = r.Stats()
	if st.Rows != 9 || st.Distinct == nil || st.Distinct[0] != 9 {
		t.Fatalf("stats after dedup = %+v, want 9 rows, distinct(a)=9", st)
	}
}

func TestNewResultSkipsStats(t *testing.T) {
	r := NewResult(statsSchema())
	r.MustInsert(SV("x"), SV("y"))
	if st := r.Stats(); st.Distinct != nil {
		t.Fatalf("NewResult stats = %+v, want absent", st)
	}
	if r.HasStats() {
		t.Fatal("NewResult reports HasStats")
	}
}

// TestStatsConcurrentReadersDuringInsert race-checks the documented
// carve-out: Stats may run concurrently with the single permitted
// writer inserting.
func TestStatsConcurrentReadersDuringInsert(t *testing.T) {
	r := New(statsSchema())
	const rows = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := r.Stats()
				if st.Distinct != nil && st.Rows > 0 && st.Distinct[1] < 1 {
					t.Error("mid-insert stats inconsistent: rows without distincts")
					return
				}
			}
		}()
	}
	for i := 0; i < rows; i++ {
		r.MustInsert(SV(fmt.Sprintf("a%d", i)), SV(fmt.Sprintf("b%d", i%7)))
	}
	close(stop)
	wg.Wait()
	st := r.Stats()
	if st.Rows != rows || st.Distinct == nil || st.Distinct[1] != 7 {
		t.Fatalf("final stats = %+v, want %d rows, distinct(b)=7", st, rows)
	}
}

// TestDatabaseStatsVersion pins the plan-cache contract: any insert or
// delete anywhere in the database changes the fingerprint.
func TestDatabaseStatsVersion(t *testing.T) {
	db := NewDatabase()
	a := New(NewSchema("a", Attr("x")))
	b := New(NewSchema("b", Attr("y")))
	db.Put(a)
	db.Put(b)
	v0 := db.StatsVersion()
	if db.StatsVersion() != v0 {
		t.Fatal("fingerprint not stable without mutations")
	}
	a.MustInsert(SV("1"))
	v1 := db.StatsVersion()
	if v1 == v0 {
		t.Fatal("insert did not change the fingerprint")
	}
	b.MustInsert(SV("2"))
	v2 := db.StatsVersion()
	if v2 == v1 {
		t.Fatal("insert into second relation did not change the fingerprint")
	}
	b.Delete(Tuple{SV("2")})
	if db.StatsVersion() == v2 {
		t.Fatal("delete did not change the fingerprint")
	}
}
