package relation

import "sync"

// This file maintains the per-relation dictionary encoding behind the
// columnar batch kernel in internal/cq: each column's values are mapped
// to dense small ints ("codes"), and a columnar code vector aligned
// with the row slice gives the engine an int32 read view over the
// relation. Equality probes and duplicate elimination then compare and
// hash ints instead of 40-byte Value structs. The encoding follows the
// statistics lifecycle (see stats.go): it is updated incrementally on
// Insert — one map probe and one append per column — and built in one
// sized pass over a whole run of rows by InsertBatch, and rebuilt the
// same way when rows are removed or reordered (Delete, Dedup,
// SortRows). A sized pass reserves each column's code vector once and
// allocates its decode table and encode map once, at the distinct-value
// count the column sketch estimates. Relations that are not maintaining
// one — NewResult answer relations and copies of them — pay nothing
// until a plan first joins against them: Encoding then builds the dictionary in one pass
// under the relation's lock, and Insert keeps it current from there on.

// colDict is one column's dictionary: the columnar code vector (row id
// → code) and the decode table (code → value). Codes are dense: the
// column's kth distinct value, in first-appearance order, has code k-1.
// Both slices are append-only, so snapshot clones share their backing
// arrays capped at the lengths they saw. The encode map (value → code)
// lives in the lineage, shared with every snapshot.
type colDict struct {
	codes []int32
	vals  []Value
}

// smallDictWidth is the column width below which the encode map is not
// worth its allocation: encode and lookup linear-scan the decode table
// instead. The many tiny delta relations flowing through updategram
// propagation never grow past it, so they never pay for a map.
const smallDictWidth = 8

// repackFraction bounds the unindexed tail a shared packed code index
// may trail a snapshot by: a snapshot of n rows reuses the index packed
// at m rows while n-m <= m/repackFraction and scans codes[m:n] per
// probe; past that the index is re-packed at n. A re-pack costs O(n)
// once per n/repackFraction appended rows — O(repackFraction) row
// visits per appended row, whatever the relation's size.
const repackFraction = 64

// lineage is the index state shared by a dictionary and every snapshot
// cloned from it: the per-column value → code maps and packed code
// indexes. Sharing is sound because only the lineage's owner — the one
// dictionary still allowed to append — ever adds to it, and everything
// it adds describes codes and rows past what any snapshot can see: a
// snapshot discards map hits at or above its own width and reads a
// packed index only up to the row count it was packed at. A dictionary
// that rewrites its vectors (Delete, Dedup, SortRows) or that is a
// snapshot being inserted into leaves for a lineage of its own.
type lineage struct {
	// mu guards the encode maps: the owner adds values under the write
	// side (and reads without it — it is the only writer), snapshots look
	// values up under the read side.
	mu sync.RWMutex
	// idxMu serializes packed-index builds and guards cols[i].packed.
	idxMu sync.Mutex
	cols  []lineageCol
}

// lineageCol is one column's shared index state. m is nil until the
// owner's column reaches smallDictWidth, and from then on holds every
// value of the owner's decode table. packed is the newest packed code
// index any member of the lineage built.
type lineageCol struct {
	m      map[Value]int32
	packed *packedIndex
}

// packedIndex is a CSR code → row-ids index over the first n rows of a
// lineage's code vector: rows holds the row ids of code 0, then code 1,
// … and starts[c] is where code c's run begins. Immutable once built.
type packedIndex struct {
	starts []int32
	rows   []int32
	n      int
}

// packCodes builds the packed index of one code vector whose codes are
// all below width.
func packCodes(codes []int32, width int) *packedIndex {
	p := &packedIndex{
		starts: make([]int32, width+1),
		rows:   make([]int32, len(codes)),
		n:      len(codes),
	}
	for _, c := range codes {
		p.starts[c+1]++
	}
	for c := 1; c <= width; c++ {
		p.starts[c] += p.starts[c-1]
	}
	next := make([]int32, width)
	copy(next, p.starts[:width])
	for rid, c := range codes {
		p.rows[next[c]] = int32(rid)
		next[c]++
	}
	return p
}

// scan is the mapless lookup: a linear pass over the decode table,
// faster than a map for the handful of values a small column holds.
func (c *colDict) scan(v Value) (int32, bool) {
	for i, u := range c.vals {
		if u == v {
			return int32(i), true
		}
	}
	return 0, false
}

// Dict is a relation's dictionary encoding: one dictionary per column
// plus the encoded row count. It is a read view — the batch kernel
// resolves codes to values and values to codes through it — and is
// reached via Relation.Encoding. Reading a Dict concurrently with
// relation mutations requires the same external synchronization as
// reading Rows.
type Dict struct {
	cols []colDict
	n    int
	// lin is the index state shared with snapshots (see lineage); nil on
	// an owner that has had no use for one yet. owns marks the one
	// dictionary of a lineage that may append to its vectors in place.
	lin  *lineage
	owns bool
}

func newDict(arity int) *Dict {
	return &Dict{cols: make([]colDict, arity), owns: true}
}

// lineage returns the dictionary's shared index state, creating it on
// first use. Only an owner can lack one (clone gives every snapshot its
// source's), and the caller holds the owning relation's write lock.
func (d *Dict) lineage() *lineage {
	if d.lin == nil {
		d.lin = &lineage{cols: make([]lineageCol, len(d.cols))}
	}
	return d.lin
}

// Len returns the number of encoded rows.
func (d *Dict) Len() int { return d.n }

// Width returns the number of distinct values — hence codes — in the
// column's dictionary.
func (d *Dict) Width(col int) int { return len(d.cols[col].vals) }

// Codes returns the column's code vector, aligned with the relation's
// rows; callers must not mutate it.
func (d *Dict) Codes(col int) []int32 { return d.cols[col].codes }

// Value decodes one code of the column.
func (d *Dict) Value(col int, code int32) Value { return d.cols[col].vals[code] }

// Code returns the column's code for v and whether v appears in the
// column at all — a miss means no row of the relation holds v there.
// Small columns linear-scan the decode table; wider ones probe the
// lineage's shared encode map, discarding codes the owner assigned
// after this dictionary was snapshotted.
func (d *Dict) Code(col int, v Value) (int32, bool) {
	c := &d.cols[col]
	if len(c.vals) <= smallDictWidth {
		return c.scan(v)
	}
	d.lin.mu.RLock()
	code, ok := d.lin.cols[col].m[v]
	d.lin.mu.RUnlock()
	return code, ok && int(code) < len(c.vals)
}

// extend appends the codes of a run of rows — the rows right after the
// ones already encoded — growing the column dictionaries (and the
// lineage's encode maps) for values not seen before. widths, when not
// nil, holds each column's expected final width (see widthHintsLocked).
// Only the lineage's owner calls it, under the relation's write lock.
func (d *Dict) extend(rows []Tuple, widths []int) {
	for col := range d.cols {
		width := 0
		if widths != nil {
			width = widths[col]
		}
		d.extendCol(col, rows, width)
	}
	d.n += len(rows)
}

// extendCol is the one per-column dictionary builder behind Insert,
// InsertBatch and every rebuild. The code vector grows once for the
// whole run; the decode table grows once to width, and an encode map it
// creates is sized to width, so a run whose width is known ahead
// allocates each of them exactly once. Growth past width falls back to
// append. The encode map comes into existence exactly when an Insert
// loop over the same rows would create it: on the first row that finds
// smallDictWidth values already in the table. A map created here stays
// private until the run ends, since no snapshot reads it: every snapshot
// of a column without a map is at most smallDictWidth wide, so it scans
// its decode table. A map the lineage already holds is written under
// the lineage's lock, as the snapshots sharing it read it concurrently.
func (d *Dict) extendCol(col int, rows []Tuple, width int) {
	c := &d.cols[col]
	c.codes = reserve(c.codes, len(rows))
	if width > len(c.vals) {
		c.vals = reserve(c.vals, width-len(c.vals))
	}
	var m map[Value]int32
	if d.lin != nil {
		m = d.lin.cols[col].m
	}
	private := false
	for _, t := range rows {
		if m == nil && len(c.vals) >= smallDictWidth {
			m = make(map[Value]int32, max(width, len(c.vals)))
			for i, v := range c.vals {
				m[v] = int32(i)
			}
			private = true
		}
		v := t[col]
		var code int32
		var ok bool
		if m != nil {
			code, ok = m[v]
		} else {
			code, ok = c.scan(v)
		}
		if !ok {
			code = int32(len(c.vals))
			c.vals = append(c.vals, v)
			switch {
			case private:
				m[v] = code
			case m != nil:
				d.lin.mu.Lock()
				m[v] = code
				d.lin.mu.Unlock()
			}
		}
		c.codes = append(c.codes, code)
	}
	if private {
		lin := d.lineage()
		lin.mu.Lock()
		lin.cols[col].m = m
		lin.mu.Unlock()
	}
}

// clone snapshots the encoding in O(arity) (nil stays nil). The code
// vectors and decode tables are append-only under Insert, so the clone
// shares their backing arrays, capped at the current lengths: a later
// append by the source writes past the clone's cap (or reallocates) and
// never aliases what the clone can read. The clone joins the source's
// lineage without owning it, so encode maps and packed code indexes
// built on either side serve both.
func (d *Dict) clone() *Dict {
	if d == nil {
		return nil
	}
	out := &Dict{cols: make([]colDict, len(d.cols)), n: d.n, lin: d.lineage()}
	for i := range d.cols {
		c := &d.cols[i]
		out.cols[i] = colDict{
			codes: c.codes[:len(c.codes):len(c.codes)],
			vals:  c.vals[:len(c.vals):len(c.vals)],
		}
	}
	return out
}

// Encoding returns the relation's dictionary encoding, covering exactly
// the current rows. A relation that is not maintaining one — a
// NewResult relation (or a copy of one) opted out, or nothing was
// inserted yet — builds it here in one pass and keeps it, so repeated
// calls on an unchanged relation return the same Dict. The
// check-and-build is atomic, like EnsureCodeIndex, so concurrent readers
// sharing a relation may make the first call together; reading the
// returned Dict concurrently with mutations requires external
// synchronization, like Rows.
func (r *Relation) Encoding() *Dict {
	r.mu.RLock()
	d := r.dict
	current := d != nil && r.encRows == len(r.rows)
	r.mu.RUnlock()
	if current {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureEncodingLocked()
	return r.dict
}

// ensureEncodingLocked builds the dictionary encoding unless a current
// one exists. Caller holds r.mu.
func (r *Relation) ensureEncodingLocked() {
	if r.dict == nil || r.encRows != len(r.rows) {
		r.rebuildEncodingLocked()
	}
}

// addEncodingLocked folds the rows from index from on into the
// dictionary encoding if it has tracked every row before it — one
// inserted row for Insert (widths nil: grow by append), a whole run for
// InsertBatch (widths from widthHintsLocked). A snapshot's dictionary
// being inserted into first leaves its source's lineage: the vectors
// reallocate on append (they are capped), and from then on its rows
// diverge from what the shared indexes describe. The relation's cached
// code-index views go stale (their tail just grew); the lineage's
// packed indexes stay. Caller holds r.mu.
func (r *Relation) addEncodingLocked(from int, widths []int) {
	if r.encRows != from {
		return // not maintained (NewResult, raw appends) until first joined
	}
	if r.dict == nil {
		r.dict = newDict(r.Schema.Arity())
	} else if !r.dict.owns {
		r.dict.lin, r.dict.owns = nil, true
	}
	r.dict.extend(r.rows[from:], widths)
	r.encRows = len(r.rows)
	r.codeIdx = nil
}

// rebuildEncodingLocked recomputes the dictionary encoding from the
// current rows (after a removal or reorder invalidated the incremental
// one, or on a relation's first join) into fresh vectors and a fresh
// lineage, leaving whatever the old ones share with snapshots
// untouched. It is one sized pass wherever statistics are maintained.
// Caller holds r.mu.
func (r *Relation) rebuildEncodingLocked() {
	r.dict = newDict(r.Schema.Arity())
	r.dict.extend(r.rows, r.widthHintsLocked())
	r.encRows = len(r.rows)
	r.codeIdx = nil
}

// CodeIndex is a code → row-ids index over one dictionary-encoded
// column, the one index a relation keeps: a probe is an array access
// on the probe code, no hashing. It has two
// parts. The packed part (Rows) is a CSR layout over the relation's
// first rows, shared along the source → snapshot lineage; the tail
// (Tail) is the column's raw codes for the rows appended since the
// packed part was built, which a probe scans. A relation that has not
// grown since its index was packed has an empty tail. Both parts are
// immutable.
type CodeIndex struct {
	starts []int32
	rows   []int32
	tail   []int32
	base   int
}

// Rows returns the ids of the packed rows whose column holds the given
// code, in ascending order; callers must not mutate the slice. Codes
// outside the packed dictionary return nil. A complete probe also scans
// Tail.
func (ci *CodeIndex) Rows(code int32) []int32 {
	if code < 0 || int(code) >= len(ci.starts)-1 {
		return nil
	}
	return ci.rows[ci.starts[code]:ci.starts[code+1]]
}

// Tail returns the column's codes for the rows the packed part does
// not cover — tail[i] is the code of row base+i — which a probe
// compares one by one. Callers must not mutate the slice.
func (ci *CodeIndex) Tail() (base int, tail []int32) { return ci.base, ci.tail }

// EnsureCodeIndex returns the column's code index (nil only for a
// column out of range), building the dictionary encoding first if the
// relation is not maintaining one (see Encoding). The packed part is shared
// with the relation's source and snapshots: a relation of n rows reuses
// the newest index its lineage packed at m <= n rows, with the codes of
// rows m..n-1 as its tail, and re-packs at n (publishing the result to
// the lineage) only when there is none or the tail has outgrown
// m/repackFraction. A snapshot older than its lineage's index (n < m)
// packs a private one. The check-and-build is atomic, so concurrent
// readers sharing a relation may call it safely, and the result is
// cached on the relation until its next mutation.
func (r *Relation) EnsureCodeIndex(col int) *CodeIndex {
	if col < 0 || col >= r.Schema.Arity() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureEncodingLocked()
	if ci, ok := r.codeIdx[col]; ok {
		return ci
	}
	cd := &r.dict.cols[col]
	n := len(cd.codes)
	lin := r.dict.lineage()
	lin.idxMu.Lock()
	p := lin.cols[col].packed
	if p == nil || p.n > n || n-p.n > p.n/repackFraction {
		newer := p == nil || p.n < n
		p = packCodes(cd.codes, len(cd.vals))
		if newer {
			lin.cols[col].packed = p
		}
	}
	lin.idxMu.Unlock()
	ci := &CodeIndex{starts: p.starts, rows: p.rows, tail: cd.codes[p.n:], base: p.n}
	if r.codeIdx == nil {
		r.codeIdx = make(map[int]*CodeIndex)
	}
	r.codeIdx[col] = ci
	return ci
}
