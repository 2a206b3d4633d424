// Package store persists a relation.Database as a versioned on-disk
// snapshot plus an append-only write-ahead log of change records, so a
// peer restarted after a crash recovers exactly the state — including
// every relation's (version, rows) freshness fingerprint — it was
// serving before. That exactness is the point: remote mirrors key their
// replicas on those fingerprints, so a recovery that lands on the same
// fingerprints means a restarted peer rejoins the network without any
// mirror re-scanning a relation.
//
// The snapshot is one checksummed file in the wire encoding of
// internal/relation, committed by atomic rename; the WAL is an
// append-only file of individually checksummed change records. Recovery
// loads the snapshot, replays the log's longest valid prefix, and
// truncates whatever a crash tore off the tail — a corrupt tail is
// detected and discarded, never silently replayed. Records appended
// since the last checkpoint also stay resident in memory, where Since
// serves them to the wire protocol's Delta request: a mirror that knows
// its last-synced version catches up from the log instead of re-reading
// the relation.
//
// Durability level: every Append reaches the operating system before it
// returns (a process crash — SIGKILL — loses nothing); set SyncAppend
// for fsync-per-record machine-crash durability. Checkpoints and Close
// always fsync.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/relation"
)

// Store is a durable relation.Database: mutations are logged through
// Append, Checkpoint folds the log into a fresh snapshot, and Open
// recovers snapshot+log after a restart. The database handle it owns is
// shared with the caller (a pdms.Peer serves queries straight from it);
// the caller mutates the database first and logs the change second,
// under its own write lock — Store synchronizes its file state
// internally but does not synchronize the database.
type Store struct {
	// SyncAppend, when set before the first Append, fsyncs the log after
	// every record — machine-crash durability at a per-mutation fsync
	// cost. Off by default: the write still reaches the kernel before
	// Append returns, so a process crash (the churn suite's SIGKILL)
	// loses nothing.
	SyncAppend bool

	dir string

	mu        sync.Mutex
	db        *relation.Database
	schemaVer uint64
	wal       *os.File
	walSize   int64
	// tail holds the data records appended since the last checkpoint —
	// the resident change log Since serves Delta catch-ups from.
	tail []relation.ChangeRecord
	// base maps relation name → its version at the last checkpoint: the
	// coverage floor below which Since cannot serve a delta.
	base map[string]uint64
	rec  Recovery
	err  error
}

// Recovery reports what Open reconstructed: rows loaded from the
// snapshot, log records replayed on top, and how many torn or corrupt
// tail bytes were discarded (and truncated from the file).
type Recovery struct {
	// SnapshotRows is the total row count the snapshot contributed.
	SnapshotRows int
	// Replayed is how many committed log records were applied on top.
	Replayed int
	// Trimmed is how many invalid tail bytes recovery discarded.
	Trimmed int64
}

// Open recovers (or initializes) the store rooted at dir: leftover
// checkpoint temp files are removed, the snapshot is loaded and
// verified, and the log's longest valid prefix is replayed on top, with
// any torn tail truncated away. A directory that never held a store
// yields an empty database.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A checkpoint that crashed before its atomic rename leaves a temp
	// image behind; it was never committed, so it is garbage.
	if tmps, err := filepath.Glob(filepath.Join(dir, snapshotTmpPattern)); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	db, schemaVer, base, rows, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	img, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return nil, err
	}
	recs, good := scanWAL(img)
	s := &Store{
		dir: dir, db: db, schemaVer: schemaVer, wal: wal, walSize: good, base: base,
		rec: Recovery{SnapshotRows: rows, Trimmed: int64(len(img)) - good},
	}
	replayed := 0
	for i, rec := range recs {
		// A crash between a checkpoint's atomic rename and its log
		// truncate leaves records the snapshot already folded in. Their
		// versions say so — skip them instead of double-applying.
		if rec.Op == relation.ChangeSchema {
			if rec.Ver <= schemaVer {
				continue
			}
		} else if rec.Ver <= base[rec.Rel] {
			continue
		}
		if rec.Op == relation.ChangeSchema {
			db.GetOrCreate(rec.Schema)
			if rec.Ver > s.schemaVer {
				s.schemaVer = rec.Ver
			}
		} else {
			// A record that checksummed clean but does not land on its own
			// (version, rows) fingerprint means the snapshot and log disagree
			// — a hard error, because serving a silently wrong database is
			// worse than refusing to start.
			if err := replay(db, recs[i:i+1]); err != nil {
				wal.Close()
				return nil, err
			}
			s.tail = append(s.tail, rec)
		}
		replayed++
	}
	s.rec.Replayed = replayed
	if s.rec.Trimmed > 0 {
		// Drop the torn tail from the file too, so later appends land at
		// the valid prefix's end instead of after garbage.
		if err := wal.Truncate(good); err != nil {
			wal.Close()
			return nil, err
		}
	}
	if _, err := wal.Seek(good, io.SeekStart); err != nil {
		wal.Close()
		return nil, err
	}
	return s, nil
}

// replay applies a run of one relation's data records to the database
// through the relation-level verified apply, putting the result in the
// relation's place when the apply had to build a new one (a delete).
func replay(db *relation.Database, run []relation.ChangeRecord) error {
	r := db.Get(run[0].Rel)
	if r == nil {
		return fmt.Errorf("store: log names unknown relation %q", run[0].Rel)
	}
	applied, err := r.ApplyChanges(run)
	if err != nil {
		return fmt.Errorf("store: replay: %w", err)
	}
	if applied != r {
		db.Put(applied)
	}
	return nil
}

// Database returns the recovered database. The handle is shared: the
// caller serves from and mutates it directly, logging each mutation
// through Append.
func (s *Store) Database() *relation.Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db
}

// SchemaVersion returns the persisted schema version: how many schema
// additions the log and snapshot have absorbed.
func (s *Store) SchemaVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schemaVer
}

// Recovered reports what the Open that produced this store
// reconstructed.
func (s *Store) Recovered() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Err returns the sticky failure that poisoned the store, if any: once
// an Append or Checkpoint fails, the on-disk state no longer tracks the
// in-memory database, so every later durability operation refuses with
// the original error rather than logging on top of a hole.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Append logs one change record. The caller has already applied the
// mutation to the database; the record's fingerprint captures the
// state after it. Data records join the resident tail Since serves;
// schema records advance the persisted schema version.
func (s *Store) Append(rec relation.ChangeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	entry := encodeWALEntry(rec)
	if _, err := s.wal.Write(entry); err != nil {
		s.err = fmt.Errorf("store: wal append: %w", err)
		return s.err
	}
	if s.SyncAppend {
		if err := s.wal.Sync(); err != nil {
			s.err = fmt.Errorf("store: wal sync: %w", err)
			return s.err
		}
	}
	s.walSize += int64(len(entry))
	switch rec.Op {
	case relation.ChangeSchema:
		if rec.Ver > s.schemaVer {
			s.schemaVer = rec.Ver
		}
	default:
		s.tail = append(s.tail, rec)
	}
	return nil
}

// Since returns the data records of rel with version > since, in log
// order, and whether the resident log covers that range. Coverage
// fails when since predates the last checkpoint's version for rel (the
// records were folded into the snapshot and discarded) — the caller
// falls back to a full scan. A since equal to the relation's current
// version is covered and yields an empty delta.
func (s *Store) Since(rel string, since uint64) ([]relation.ChangeRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since < s.base[rel] {
		return nil, false
	}
	var out []relation.ChangeRecord
	for _, rec := range s.tail {
		if rec.Rel == rel && rec.Ver > since {
			out = append(out, rec)
		}
	}
	return out, true
}

// Checkpoint folds the current database into a fresh snapshot
// (committed atomically) and resets the log: the WAL truncates to
// empty, the resident tail is dropped, and every relation's current
// version becomes the new delta coverage floor.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := writeSnapshot(s.dir, s.schemaVer, s.db); err != nil {
		s.err = fmt.Errorf("store: checkpoint: %w", err)
		return s.err
	}
	// The snapshot is committed, so the log's records are now redundant
	// — and replaying them on top of the new snapshot would double-apply
	// them. Truncate before declaring success, and poison the store if
	// that fails so the stale log is never appended to.
	if err := s.wal.Truncate(0); err != nil {
		s.err = fmt.Errorf("store: checkpoint truncate: %w", err)
		return s.err
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		s.err = fmt.Errorf("store: checkpoint seek: %w", err)
		return s.err
	}
	if err := s.wal.Sync(); err != nil {
		s.err = fmt.Errorf("store: checkpoint sync: %w", err)
		return s.err
	}
	s.walSize = 0
	s.tail = nil
	base := make(map[string]uint64, len(s.db.Relations()))
	for _, r := range s.db.Relations() {
		base[r.Schema.Name] = r.Version()
	}
	s.base = base
	return nil
}

// Close fsyncs and closes the log. The snapshot is left as the last
// checkpoint wrote it; a clean shutdown that wants an empty log on the
// next Open should Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return s.err
	}
	serr := s.wal.Sync()
	cerr := s.wal.Close()
	s.wal = nil
	if s.err != nil {
		return s.err
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// Digest renders a canonical content digest of a database: per relation
// in name order, its schema and its sorted rows in the wire encoding,
// hashed. Two databases digest equal iff they hold identical relations
// (bag semantics: duplicates count) — the oracle the crash-recovery
// tests compare recovered state against.
func Digest(db *relation.Database) string {
	h := sha256.New()
	for _, r := range db.Relations() {
		h.Write(relation.EncodeSchema(r.Schema))
		rows := append([]relation.Tuple(nil), r.Rows()...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
		h.Write(relation.EncodeTupleBatch(rows))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
