package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Relation is an in-memory bag of tuples conforming to a schema, with
// incrementally maintained column statistics (see Stats) for the cost-
// based join planner and a per-column dictionary encoding (see dict.go)
// for the columnar batch kernel, whose packed code indexes are the
// relation's only indexes.
//
// Concurrency: reads (Contains, Rows, Stats, Encoding, EnsureCodeIndex)
// may run concurrently with each other — lazy encoding and code-index
// construction are synchronized, so concurrent readers of a shared
// relation are safe. Mutations (Insert, Delete, Dedup, SortRows)
// require external synchronization with respect to readers, with one
// carve-out: Stats may run concurrently with Insert (the statistics
// fields and row count are exchanged under the lock).
type Relation struct {
	Schema  Schema
	rows    []Tuple
	mu      sync.RWMutex // guards sketches, encoding, rows len vs Insert
	version uint64       // bumped on every mutation; see Version
	// sketches holds one distinct-count sketch per column; statRows is
	// how many rows they have absorbed. Statistics are valid iff
	// statRows == len(rows) — a NewResult relation, or a copy of one,
	// never absorbs its rows and so has no stats. See stats.go.
	sketches []colSketch
	statRows int
	// dict is the per-column dictionary encoding behind the columnar
	// batch kernel; encRows mirrors statRows — the encoding is valid
	// iff encRows == len(rows). codeIdx caches this relation's views of
	// the code indexes its dictionary lineage shares; any mutation drops
	// the views. See dict.go.
	dict    *Dict
	encRows int
	codeIdx map[int]*CodeIndex
	// shared records that the rows backing array is visible through
	// another relation (SnapshotAs set it on both sides), so an operation
	// that would rewrite the backing in place — Delete, Dedup, SortRows —
	// must write a fresh one instead. Appends need no such care: they
	// land past every snapshot's cap.
	shared bool
}

// New creates an empty relation with the given schema. Column
// statistics are maintained incrementally as rows are inserted; use
// NewResult for relations that should skip that work.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// NewResult creates an empty relation that maintains neither column
// statistics nor a dictionary encoding as rows arrive — intended for
// answer/result relations, which are consumed by the caller rather than
// joined against again, so per-insert value hashing would be pure
// overhead on the serving hot path. A planner compiling a query against
// such a relation falls back to the statistics-free greedy order; the
// first plan to join against it builds the encoding in one pass (see
// Encoding), and Insert maintains it from then on.
func NewResult(schema Schema) *Relation {
	return &Relation{Schema: schema, statRows: -1, encRows: -1}
}

// FromTuples creates a relation and inserts the given tuples, panicking on
// schema mismatch (intended for literals in tests and generators).
func FromTuples(schema Schema, tuples ...Tuple) *Relation {
	r := New(schema)
	for _, t := range tuples {
		if err := r.Insert(t); err != nil {
			panic(err)
		}
	}
	return r
}

// Len returns the number of tuples (bag semantics: duplicates count).
func (r *Relation) Len() int { return len(r.rows) }

// Version returns a counter incremented by every mutating operation
// (Insert, Delete, Dedup, SortRows). Caches key snapshots on it.
func (r *Relation) Version() uint64 { return r.version }

// RestoreVersion overwrites the mutation-version counter. Recovery and
// delta catch-up use it to re-establish the exact (version, rows)
// freshness fingerprint a relation had when its state was persisted or
// served, so mirrors synced before a restart still match after it. It
// follows the mutation contract: external synchronization with readers.
func (r *Relation) RestoreVersion(v uint64) {
	r.mu.Lock()
	r.version = v
	r.mu.Unlock()
}

// SnapshotAs returns a relation named name holding this relation's
// current tuples, in O(arity): nothing per row is copied. The snapshot
// shares the append-only backing of the row slice and of the dictionary
// encoding's code vectors and decode tables, each capped at its current
// length, so the source's later Inserts land past everything the
// snapshot can reach (or reallocate) and the snapshot never changes.
// Only the source may keep appending in place; an Insert into the
// snapshot reallocates. Operations that would rewrite a shared backing
// — Delete, Dedup, SortRows, on either side — copy first. The snapshot
// also joins the source's dictionary lineage, so encode maps and packed
// code indexes built by one serve the other (see EnsureCodeIndex).
// Statistics carry over by copy; planning against a snapshot sees the
// source's cardinalities without re-scanning.
func (r *Relation) SnapshotAs(name string) *Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.rows)
	out := &Relation{
		Schema: Schema{Name: name, Attrs: r.Schema.Attrs},
		rows:   r.rows[:n:n],
		shared: true,
	}
	r.shared = true
	if r.statRows == n {
		out.sketches = cloneSketches(r.sketches)
		out.statRows = n
	}
	if r.encRows == n {
		out.dict = r.dict.clone()
		out.encRows = n
	}
	return out
}

// Rows returns the underlying tuple slice; callers must not mutate it.
func (r *Relation) Rows() []Tuple { return r.rows }

// Row returns the i-th tuple.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Insert appends a tuple after validating it against the schema and
// updates the column statistics and dictionary encoding it maintains.
func (r *Relation) Insert(t Tuple) error {
	if err := r.Schema.Compatible(t); err != nil {
		return err
	}
	r.mu.Lock()
	id := len(r.rows)
	r.rows = append(r.rows, t)
	r.version++
	r.addStatsLocked(id)
	r.addEncodingLocked(id, nil)
	r.mu.Unlock()
	return nil
}

// MustInsert inserts values, panicking on schema mismatch.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertBatch appends a run of tuples under one lock acquisition and
// leaves the relation as an Insert per tuple would have: the same rows
// in the same order, the same column statistics, and the same
// dictionary codes and decode tables. Every tuple is validated first; a
// batch with one incompatible tuple returns its error and changes
// nothing. The version moves once per batch (callers that restore a
// fingerprint call RestoreVersion after it), and an empty batch is no
// mutation. The caller's slice is never retained; its tuples are.
//
// On a relation that maintains statistics or an encoding — every
// relation made by New — the batch is a bulk load: the row slice grows
// once, the batch is folded into the column sketches, and each column's
// dictionary is then extended in one pass, its code vector reserved
// once and its decode table and encode map allocated once at the
// distinct-value count the folded sketch estimates. Replicas, recovered
// snapshots and shipped overlays are built this way. A NewResult
// relation maintains neither, so the answer buffers cq streams into it
// only append, growing the row slice by half again when it fills.
func (r *Relation) InsertBatch(ts []Tuple) error {
	for _, t := range ts {
		if err := r.Schema.Compatible(t); err != nil {
			return err
		}
	}
	if len(ts) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	from := len(r.rows)
	maintained := r.statRows == from || r.encRows == from
	switch need := from + len(ts); {
	case maintained:
		r.rows = reserve(r.rows, len(ts))
	case cap(r.rows) < need:
		grown := make([]Tuple, from, need+need/2)
		copy(grown, r.rows)
		r.rows = grown
	}
	r.rows = append(r.rows, ts...)
	r.version++
	r.addStatsLocked(from)
	if r.encRows == from {
		r.addEncodingLocked(from, r.widthHintsLocked())
	}
	return nil
}

// reserve returns s with room for n more elements. A run loaded into an
// empty slice gets exactly n — its size is known, and the first append
// after it pays the one growth any append does. Anything else grows as
// append would: a run onto existing elements stays amortized O(1) per
// element, and a single element (Insert) allocates exactly as append.
func reserve[S ~[]E, E any](s S, n int) S {
	switch {
	case n <= cap(s)-len(s):
		return s
	case len(s) == 0 && n > 1:
		return make(S, 0, n)
	}
	return slices.Grow(s, n)
}

// Delete removes all tuples equal to t and reports how many were removed.
// Code indexes are rebuilt lazily on next use; column statistics and the
// dictionary encoding are rebuilt eagerly (the pass is already O(rows)).
// The rows compact in place unless a snapshot shares their backing.
func (r *Relation) Delete(t Tuple) int {
	first := -1
	for i, row := range r.rows {
		if row.Equal(t) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	statsValid := r.statRows == len(r.rows)
	encValid := r.encRows == len(r.rows)
	kept := r.rows[:first]
	if r.shared {
		kept = append(make([]Tuple, 0, len(r.rows)-1), kept...)
	}
	removed := 1
	for _, row := range r.rows[first+1:] {
		if row.Equal(t) {
			removed++
			continue
		}
		kept = append(kept, row)
	}
	r.rows = kept
	r.mu.Lock()
	r.shared = false
	r.codeIdx = nil
	r.version++
	if statsValid {
		r.rebuildStatsLocked()
	}
	if encValid {
		r.rebuildEncodingLocked()
	}
	r.mu.Unlock()
	return removed
}

// Contains reports whether the relation contains a tuple equal to t.
func (r *Relation) Contains(t Tuple) bool {
	for _, row := range r.rows {
		if row.Equal(t) {
			return true
		}
	}
	return false
}

// Dedup removes duplicate tuples, preserving first occurrence order,
// and returns the relation for chaining — in place unless a snapshot
// shares the rows backing. Column statistics survive without a rebuild:
// removing duplicate tuples leaves every column's distinct-value set —
// hence its sketch — unchanged; only the tracked row count moves.
func (r *Relation) Dedup() *Relation {
	statsValid := r.statRows == len(r.rows)
	encValid := r.encRows == len(r.rows)
	seen := NewTupleSet(len(r.rows))
	kept := r.rows[:0]
	if r.shared {
		kept = make([]Tuple, 0, len(r.rows))
	}
	for _, row := range r.rows {
		if !seen.Add(row) {
			continue
		}
		kept = append(kept, row)
	}
	if len(kept) == len(r.rows) {
		return r
	}
	r.rows = kept
	r.mu.Lock()
	r.shared = false
	r.codeIdx = nil
	r.version++
	if statsValid {
		r.statRows = len(kept)
	}
	if encValid {
		// The code vectors are positional; dropping rows shifts
		// every id after the first duplicate, so re-encode.
		r.rebuildEncodingLocked()
	}
	r.mu.Unlock()
	return r
}

// SortRows orders tuples lexicographically (for deterministic output)
// and returns the relation — in place unless a snapshot shares the rows
// backing, in which case a copy is sorted. The row count is unchanged
// but the order is not, so the positional dictionary encoding is
// re-derived rather than trusted.
func (r *Relation) SortRows() *Relation {
	encValid := r.encRows == len(r.rows)
	if r.shared {
		r.rows = append([]Tuple(nil), r.rows...)
	}
	sort.Slice(r.rows, func(i, j int) bool { return r.rows[i].Less(r.rows[j]) })
	r.mu.Lock()
	r.shared = false
	r.codeIdx = nil
	if encValid {
		r.rebuildEncodingLocked()
	}
	r.mu.Unlock()
	r.version++
	return r
}

// Clone returns a private mutable copy: its own schema, row slice and
// tuples (O(rows) allocations), for callers that hand the copy out or
// edit it freely. Statistics are copied; the dictionary encoding is snapshotted as SnapshotAs does it, and detaches
// on the copy's first mutation. Paths that only need a stable read view
// — snapshots, replica applies — use SnapshotAs, which copies nothing
// per row.
func (r *Relation) Clone() *Relation {
	out := New(r.Schema.Clone())
	out.rows = make([]Tuple, len(r.rows))
	for i, row := range r.rows {
		out.rows[i] = row.Clone()
	}
	r.mu.Lock()
	if r.statRows == len(r.rows) {
		out.sketches = cloneSketches(r.sketches)
		out.statRows = len(out.rows)
	}
	if r.encRows == len(r.rows) {
		out.dict = r.dict.clone()
		out.encRows = len(out.rows)
	}
	r.mu.Unlock()
	return out
}

// Equal reports set equality of tuples (order-insensitive, duplicates
// collapsed) with other.
func (r *Relation) Equal(other *Relation) bool {
	if r.Schema.Arity() != other.Schema.Arity() {
		return false
	}
	a := NewTupleSet(len(r.rows))
	for _, row := range r.rows {
		a.Add(row)
	}
	b := NewTupleSet(len(other.rows))
	for _, row := range other.rows {
		b.Add(row)
	}
	if a.Len() != b.Len() {
		return false
	}
	for _, bucket := range a.buckets {
		for _, row := range bucket {
			if !b.Contains(row) {
				return false
			}
		}
	}
	return true
}

// String renders the schema and row count.
func (r *Relation) String() string {
	return fmt.Sprintf("%s [%d rows]", r.Schema, len(r.rows))
}
