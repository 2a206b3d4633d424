package store

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzHistory is FuzzStoreRecover's history: the course chain, then a
// checkpoint, then the seminar chain, with a schema record and a delete
// in each. Every log this history leaves holds one relation's data
// chain after at most one schema record of that relation, so dropping
// or truncating whole log entries either breaks the chain's (version,
// rows) fingerprints — a refusal — or leaves a prefix of the history.
// It returns the digest after every step, and the committed files of
// two stores: one checkpointed after the course chain and then logging
// the seminar chain, one that logged only the course chain.
func fuzzHistory(t testing.TB) (oracle []string, snap, wal, logOnly []byte) {
	t.Helper()
	dir, logDir := t.TempDir(), t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(logDir)
	if err != nil {
		t.Fatal(err)
	}
	var schemaVer, logSchemaVer uint64
	oracle = append(oracle, Digest(s.Database()))
	for _, step := range []func(s *Store, schemaVer *uint64){
		func(s *Store, v *uint64) { addSchema(t, s, v, courseSchema("course")) },
		func(s *Store, _ *uint64) { insert(t, s, "course", row("Databases", "cs")) },
		func(s *Store, _ *uint64) { insert(t, s, "course", row("Compilers", "cs")) },
		func(s *Store, _ *uint64) { del(t, s, "course", row("Databases", "cs")) },
	} {
		step(s, &schemaVer)
		step(l, &logSchemaVer)
		oracle = append(oracle, Digest(s.Database()))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []func(){
		func() { addSchema(t, s, &schemaVer, courseSchema("seminar")) },
		func() { insert(t, s, "seminar", row("PDMS", "cs")) },
		func() { insert(t, s, "seminar", row("Chase", "cs")) },
		func() { del(t, s, "seminar", row("PDMS", "cs")) },
	} {
		step()
		oracle = append(oracle, Digest(s.Database()))
	}
	for _, st := range []*Store{s, l} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Both seeds recover: the whole history, and the course chain.
	for d, want := range map[string]string{dir: oracle[8], logDir: oracle[4]} {
		re, err := Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := Digest(re.Database()); got != want {
			t.Fatalf("seed store recovered digest %s, want %s", got, want)
		}
		re.Close()
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return oracle, read(filepath.Join(dir, snapshotName)), read(filepath.Join(dir, walName)), read(filepath.Join(logDir, walName))
}

// FuzzStoreRecover opens a store from arbitrary snapshot and log bytes
// (an empty snapshot input means no snapshot file). Open must never
// panic: it either refuses, or recovers a database whose digest is the
// digest of some prefix of fuzzHistory — and a checkpoint of what it
// recovered must reopen to the same digest. The seeds are both stores
// fuzzHistory leaves; the committed corpus in testdata holds the same
// files.
func FuzzStoreRecover(f *testing.F) {
	oracle, snap, wal, logOnly := fuzzHistory(f)
	f.Add(snap, wal)
	f.Add([]byte(nil), logOnly)
	f.Fuzz(func(t *testing.T, snap, wal []byte) {
		dir := t.TempDir()
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		got := Digest(s.Database())
		if !slices.Contains(oracle, got) {
			t.Fatalf("recovered digest %s is no prefix of the history %v", got, oracle)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after checkpoint: %v", err)
		}
		defer re.Close()
		if again := Digest(re.Database()); again != got {
			t.Fatalf("checkpoint of digest %s reopened as %s", got, again)
		}
	})
}
