package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The crash-injection suite: every test builds a store through a
// scripted mutation sequence whose state digest after each step is
// recorded as an oracle, then damages the on-disk files the way a crash
// would (torn WAL tail, corrupt byte, leftover checkpoint temp file,
// un-truncated log after a committed snapshot) and asserts that Open
// recovers exactly the oracle digest for the surviving prefix —
// including every relation's (version, rows) freshness fingerprint,
// because delta-based remote rejoin keys on those.

// courseSchema is the test relation: two string attributes.
func courseSchema(name string) relation.Schema {
	return relation.NewSchema(name, relation.Attr("title"), relation.Attr("dept"))
}

// row builds a two-column tuple.
func row(title, dept string) relation.Tuple {
	return relation.Tuple{relation.SV(title), relation.SV(dept)}
}

// addSchema registers a schema with the database and logs it, the way
// pdms.Peer does: mutate first, log second.
func addSchema(t testing.TB, s *Store, schemaVer *uint64, schema relation.Schema) {
	t.Helper()
	s.Database().Put(relation.New(schema))
	*schemaVer++
	if err := s.Append(relation.ChangeRecord{Op: relation.ChangeSchema,
		Rel: schema.Name, Ver: *schemaVer, Schema: schema}); err != nil {
		t.Fatalf("append schema record: %v", err)
	}
}

// insert applies an insert to the database and logs it with the
// post-change fingerprint.
func insert(t testing.TB, s *Store, rel string, tup relation.Tuple) {
	t.Helper()
	r := s.Database().Get(rel)
	if err := r.Insert(tup); err != nil {
		t.Fatalf("insert into %s: %v", rel, err)
	}
	if err := s.Append(relation.ChangeRecord{Op: relation.ChangeInsert,
		Rel: rel, Ver: r.Version(), Rows: r.Len(), Tuple: tup}); err != nil {
		t.Fatalf("append insert record: %v", err)
	}
}

// del applies a delete to the database and logs it.
func del(t testing.TB, s *Store, rel string, tup relation.Tuple) {
	t.Helper()
	r := s.Database().Get(rel)
	if r.Delete(tup) == 0 {
		t.Fatalf("delete from %s removed nothing", rel)
	}
	if err := s.Append(relation.ChangeRecord{Op: relation.ChangeDelete,
		Rel: rel, Ver: r.Version(), Rows: r.Len(), Tuple: tup}); err != nil {
		t.Fatalf("append delete record: %v", err)
	}
}

// fingerprints captures every relation's (version, rows) pair, the
// state delta rejoin depends on surviving recovery exactly.
func fingerprints(db *relation.Database) map[string][2]uint64 {
	out := make(map[string][2]uint64)
	for _, r := range db.Relations() {
		out[r.Schema.Name] = [2]uint64{r.Version(), uint64(r.Len())}
	}
	return out
}

// script runs the canonical mutation sequence against a fresh store in
// dir and returns it still open, plus the oracle digest after every
// append (oracle[k] is the digest once k records are durable; oracle[0]
// is the empty store).
func script(t *testing.T, dir string) (s *Store, oracle []string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open fresh store: %v", err)
	}
	var schemaVer uint64
	oracle = append(oracle, Digest(s.Database()))
	step := func(f func()) {
		f()
		oracle = append(oracle, Digest(s.Database()))
	}
	step(func() { addSchema(t, s, &schemaVer, courseSchema("course")) })
	step(func() { insert(t, s, "course", row("Databases", "cs")) })
	step(func() { insert(t, s, "course", row("Compilers", "cs")) })
	step(func() { addSchema(t, s, &schemaVer, courseSchema("seminar")) })
	step(func() { insert(t, s, "seminar", row("PDMS", "cs")) })
	step(func() { del(t, s, "course", row("Compilers", "cs")) })
	step(func() { insert(t, s, "course", row("Networks", "ee")) })
	return s, oracle
}

func TestOpenFreshDirectory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if n := len(s.Database().Relations()); n != 0 {
		t.Errorf("fresh store holds %d relations, want 0", n)
	}
	if rec := s.Recovered(); rec != (Recovery{}) {
		t.Errorf("fresh store recovery = %+v, want zero", rec)
	}
}

// TestRecoverFromLogOnly closes a store that never checkpointed and
// reopens it: everything must come back from WAL replay alone, landing
// on the identical digest and identical per-relation fingerprints.
func TestRecoverFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	s, oracle := script(t, dir)
	want := Digest(s.Database())
	wantFP := fingerprints(s.Database())
	wantSchemaVer := s.SchemaVersion()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := Digest(re.Database()); got != want {
		t.Fatalf("recovered digest %s, want %s", got, want)
	}
	if got := fingerprints(re.Database()); len(got) != len(wantFP) {
		t.Fatalf("recovered %d relations, want %d", len(got), len(wantFP))
	} else {
		for name, fp := range wantFP {
			if got[name] != fp {
				t.Errorf("relation %s fingerprint %v, want %v", name, got[name], fp)
			}
		}
	}
	if got := re.SchemaVersion(); got != wantSchemaVer {
		t.Errorf("recovered schema version %d, want %d", got, wantSchemaVer)
	}
	rec := re.Recovered()
	if rec.SnapshotRows != 0 || rec.Replayed != len(oracle)-1 || rec.Trimmed != 0 {
		t.Errorf("recovery = %+v, want 0 snapshot rows, %d replayed, 0 trimmed",
			rec, len(oracle)-1)
	}
}

// TestRecoverFromSnapshotPlusLog checkpoints mid-script, appends more,
// and reopens: the snapshot supplies the base, the log the rest.
func TestRecoverFromSnapshotPlusLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := script(t, dir)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	insert(t, s, "course", row("Operating Systems", "cs"))
	del(t, s, "seminar", row("PDMS", "cs"))
	want := Digest(s.Database())
	wantFP := fingerprints(s.Database())
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := Digest(re.Database()); got != want {
		t.Fatalf("recovered digest %s, want %s", got, want)
	}
	for name, fp := range wantFP {
		if got := fingerprints(re.Database())[name]; got != fp {
			t.Errorf("relation %s fingerprint %v, want %v", name, got, fp)
		}
	}
	rec := re.Recovered()
	if rec.SnapshotRows != 3 || rec.Replayed != 2 || rec.Trimmed != 0 {
		t.Errorf("recovery = %+v, want 3 snapshot rows, 2 replayed, 0 trimmed", rec)
	}
}

// TestTornTailEveryByte simulates a crash mid-append at every possible
// byte boundary: for each prefix length of the final WAL image,
// recovery must land exactly on the oracle digest for the records that
// survive whole, truncate the torn bytes from the file, and accept new
// appends afterwards.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	s, oracle := script(t, dir)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	img, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// offsets[k] is the WAL size once k records are committed.
	offsets := []int64{0}
	for off := int64(0); off < int64(len(img)); {
		recs, good := scanWAL(img[off:])
		if len(recs) == 0 {
			t.Fatalf("wal scan stalled at offset %d", off)
		}
		_ = good
		one := encodeWALEntry(recs[0])
		off += int64(len(one))
		offsets = append(offsets, off)
	}
	if len(offsets) != len(oracle) {
		t.Fatalf("wal holds %d records, script logged %d", len(offsets)-1, len(oracle)-1)
	}
	for cut := 0; cut <= len(img); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walName), img[:cut], 0o644); err != nil {
			t.Fatalf("write torn wal: %v", err)
		}
		survive := 0
		for survive+1 < len(offsets) && offsets[survive+1] <= int64(cut) {
			survive++
		}
		re, err := Open(sub)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := Digest(re.Database()); got != oracle[survive] {
			t.Fatalf("cut %d: digest %s, want oracle[%d] %s", cut, got, survive, oracle[survive])
		}
		if rec := re.Recovered(); rec.Trimmed != int64(cut)-offsets[survive] {
			t.Fatalf("cut %d: trimmed %d bytes, want %d", cut, rec.Trimmed, int64(cut)-offsets[survive])
		}
		if fi, err := os.Stat(filepath.Join(sub, walName)); err != nil || fi.Size() != offsets[survive] {
			t.Fatalf("cut %d: wal left at %v bytes (err %v), want truncated to %d",
				cut, fi.Size(), err, offsets[survive])
		}
		// The store must stay appendable after trimming a torn tail.
		if survive >= 1 { // the course schema record survived
			if re.Database().Get("course") != nil {
				insert(t, re, "course", row("Post Recovery", "cs"))
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		again, err := Open(sub)
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if got := Digest(again.Database()); got != Digest(re.Database()) {
			t.Fatalf("cut %d: post-recovery append did not survive a reopen", cut)
		}
		again.Close()
	}
}

// TestCorruptByteMidLog flips one byte inside a mid-file record's body:
// recovery must keep everything before the damaged record and discard
// it plus the rest of the file — a checksum failure is indistinguishable
// from a torn write, and replaying past it would apply garbage.
func TestCorruptByteMidLog(t *testing.T) {
	dir := t.TempDir()
	s, oracle := script(t, dir)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	walPath := filepath.Join(dir, walName)
	img, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Damage the third record: keep the first two, lose the rest.
	recs, _ := scanWAL(img)
	off := int64(0)
	for i := 0; i < 2; i++ {
		off += int64(len(encodeWALEntry(recs[i])))
	}
	img[off+4] ^= 0xFF
	if err := os.WriteFile(walPath, img, 0o644); err != nil {
		t.Fatalf("write corrupt wal: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := Digest(re.Database()); got != oracle[2] {
		t.Fatalf("digest %s after corruption, want oracle[2] %s", got, oracle[2])
	}
	if rec := re.Recovered(); rec.Replayed != 2 || rec.Trimmed != int64(len(img))-off {
		t.Errorf("recovery = %+v, want 2 replayed and %d trimmed", rec, int64(len(img))-off)
	}
}

// TestCrashMidCheckpointLeavesOldState simulates dying after the temp
// snapshot is written but before the atomic rename: Open must ignore
// (and remove) the leftover temp file and recover the pre-checkpoint
// state from the committed files.
func TestCrashMidCheckpointLeavesOldState(t *testing.T) {
	dir := t.TempDir()
	s, _ := script(t, dir)
	want := Digest(s.Database())
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A half-written checkpoint image under the temp pattern.
	tmp := filepath.Join(dir, "snapshot.tmp-123456")
	if err := os.WriteFile(tmp, []byte("RVSS partial garbage"), 0o644); err != nil {
		t.Fatalf("plant temp snapshot: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with leftover temp snapshot: %v", err)
	}
	defer re.Close()
	if got := Digest(re.Database()); got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("leftover temp snapshot not removed (stat err %v)", err)
	}
}

// TestCrashBetweenRenameAndTruncate simulates dying after a checkpoint
// commits its snapshot but before it truncates the log: replay must
// skip every record the snapshot already folded in (their versions say
// so) instead of double-applying them.
func TestCrashBetweenRenameAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s, _ := script(t, dir)
	walPath := filepath.Join(dir, walName)
	preTruncate, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := Digest(s.Database())
	wantFP := fingerprints(s.Database())
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Put the stale log back, as if the truncate never happened.
	if err := os.WriteFile(walPath, preTruncate, 0o644); err != nil {
		t.Fatalf("restore stale wal: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := Digest(re.Database()); got != want {
		t.Fatalf("digest %s after stale-log recovery, want %s", got, want)
	}
	for name, fp := range wantFP {
		if got := fingerprints(re.Database())[name]; got != fp {
			t.Errorf("relation %s fingerprint %v, want %v", name, got, fp)
		}
	}
	if rec := re.Recovered(); rec.Replayed != 0 {
		t.Errorf("replayed %d stale records, want 0 (snapshot already holds them)", rec.Replayed)
	}
}

// TestCorruptSnapshotRefusesToOpen flips a byte in the committed
// snapshot: the atomic commit means damage there is real, so Open must
// fail loudly rather than serve a silently wrong database.
func TestCorruptSnapshotRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := script(t, dir)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snap := filepath.Join(dir, snapshotName)
	img, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	img[len(img)/2] ^= 0xFF
	if err := os.WriteFile(snap, img, 0o644); err != nil {
		t.Fatalf("write corrupt snapshot: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

// TestSinceCoverage exercises the delta coverage contract: records
// since the last checkpoint are served; a since below the checkpoint
// floor is refused (those records were folded into the snapshot); a
// since at the current version yields an empty covered delta.
func TestSinceCoverage(t *testing.T) {
	dir := t.TempDir()
	s, _ := script(t, dir)
	defer s.Close()
	cur := s.Database().Get("course").Version()
	if recs, ok := s.Since("course", 0); !ok {
		t.Error("Since(course, 0) not covered before any checkpoint")
	} else if len(recs) != 4 { // two inserts, one delete, one more insert
		t.Errorf("Since(course, 0) = %d records, want 4", len(recs))
	}
	if recs, ok := s.Since("course", cur); !ok || len(recs) != 0 {
		t.Errorf("Since(course, current) = %d records covered=%v, want empty covered delta", len(recs), ok)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, ok := s.Since("course", cur-1); ok {
		t.Error("Since below the checkpoint floor claimed coverage")
	}
	if recs, ok := s.Since("course", cur); !ok || len(recs) != 0 {
		t.Errorf("Since(course, floor) after checkpoint = %d records covered=%v, want empty covered", len(recs), ok)
	}
	insert(t, s, "course", row("Post Checkpoint", "cs"))
	recs, ok := s.Since("course", cur)
	if !ok || len(recs) != 1 || !recs[0].Tuple.Equal(row("Post Checkpoint", "cs")) {
		t.Errorf("Since(course, floor) = %v covered=%v, want the one post-checkpoint insert", recs, ok)
	}
	// Records for other relations never leak into a delta.
	insert(t, s, "seminar", row("Recovery", "cs"))
	if recs, _ := s.Since("course", cur); len(recs) != 1 {
		t.Errorf("seminar record leaked into a course delta: %v", recs)
	}
}

// TestDigestOrderInsensitive: two databases with the same bag of rows
// inserted in different orders digest equal — the property that lets
// the process-churn suite compare a recovered peer against a freshly
// generated oracle.
func TestDigestOrderInsensitive(t *testing.T) {
	a := relation.NewDatabase()
	b := relation.NewDatabase()
	ra := relation.New(courseSchema("course"))
	rb := relation.New(courseSchema("course"))
	rows := []relation.Tuple{row("A", "cs"), row("B", "ee"), row("C", "cs"), row("B", "ee")}
	for _, t := range rows {
		ra.Insert(t)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		rb.Insert(rows[i])
	}
	a.Put(ra)
	b.Put(rb)
	if Digest(a) != Digest(b) {
		t.Error("digest depends on insertion order")
	}
	rb.Delete(row("B", "ee")) // removes both duplicates
	if Digest(a) == Digest(b) {
		t.Error("digest ignores row multiplicity")
	}
}

// TestSnapshotRowClaimSizesNothing: a snapshot whose checksum is valid
// but that claims 1<<60 rows for a relation holding two, 1<<60 values
// in a column's decode table, or 1<<60 codes in a column's code vector
// must be refused with that claim's error, and the claim must size
// nothing: the loader's buffers are bounded by the bytes that arrived.
func TestSnapshotRowClaimSizesNothing(t *testing.T) {
	const claim = 1 << 60
	// snapshot is the image of one relation, course(title, dept), holding
	// (Databases, cs) and (Ethics, phil) unless a claim says otherwise.
	snapshot := func(rows, width, codes uint64) []byte {
		img := append([]byte(nil), snapshotMagic[:]...)
		img = binary.AppendUvarint(img, snapshotFormat)
		img = binary.AppendUvarint(img, 1) // schema version
		img = binary.AppendUvarint(img, 1) // relations
		enc := relation.EncodeSchema(courseSchema("course"))
		img = binary.AppendUvarint(img, uint64(len(enc)))
		img = append(img, enc...)
		img = binary.AppendUvarint(img, 7) // relation version
		img = binary.AppendUvarint(img, rows)
		widths, counts := [2]uint64{width, 2}, [2]uint64{2, codes}
		cols := binary.AppendUvarint(nil, rows)
		for col, vals := range [2][]string{{"Databases", "Ethics"}, {"cs", "phil"}} {
			cols = binary.AppendUvarint(cols, widths[col])
			for _, v := range vals {
				cols = append(cols, byte(relation.TString))
				cols = binary.AppendUvarint(cols, uint64(len(v)))
				cols = append(cols, v...)
			}
			cols = binary.AppendUvarint(cols, counts[col])
			cols = append(cols, 0, 1) // one byte per code
		}
		img = binary.AppendUvarint(img, uint64(len(cols)))
		img = append(img, cols...)
		return binary.BigEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
	}
	honest := t.TempDir()
	if err := os.WriteFile(filepath.Join(honest, snapshotName), snapshot(2, 2, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(honest); err != nil || s.Database().Get("course").Len() != 2 {
		t.Fatalf("Open of the image without a claim = %v, want its 2 rows", err)
	} else {
		s.Close()
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"rows", snapshot(claim, 2, 2), fmt.Sprintf("course claims %d rows", uint64(claim))},
		{"width", snapshot(2, claim, 2), fmt.Sprintf("column title: claims %d values", uint64(claim))},
		{"codes", snapshot(2, 2, claim), fmt.Sprintf("column dept: claims %d codes", uint64(claim))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotName), tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := Open(dir)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want the %q refusal", err, tc.want)
			}
			if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
				t.Errorf("Open allocated %d bytes against a 1<<60 claim, want under 4 MiB", delta)
			}
		})
	}
}
