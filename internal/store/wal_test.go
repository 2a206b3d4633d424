package store

import (
	"testing"

	"repro/internal/relation"
)

// encodeWALEntry renders one log entry into a buffer of its own.
func encodeWALEntry(rec relation.ChangeRecord) []byte { return appendWALEntry(nil, rec) }

// TestAppendAllocatesAtMostOnce holds the log append every Peer.commit
// makes: a one-row record is encoded into the store's reused entry
// buffer, so what is left to allocate is the resident tail's amortized
// growth.
func TestAppendAllocatesAtMostOnce(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var schemaVer uint64
	addSchema(t, s, &schemaVer, courseSchema("course"))
	rec := relation.ChangeRecord{Op: relation.ChangeInsert, Rel: "course", Ver: 1, Rows: 1,
		Tuple: row("Principles of Database Systems", "cs")}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Append of a one-row record: %.0f allocations, want at most 1", allocs)
	}
}
