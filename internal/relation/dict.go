package relation

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// This file maintains the per-relation dictionary encoding behind the
// columnar batch kernel in internal/cq: each column's values are mapped
// to dense small ints ("codes"), and a columnar code vector aligned
// with the row slice gives the engine an int32 read view over the
// relation. Equality probes and duplicate elimination then compare and
// hash ints instead of 40-byte Value structs. The encoding follows the
// statistics lifecycle (see stats.go): it is updated incrementally on
// Insert — one table probe and one append per column — and built in one
// sized pass over a whole run of rows by InsertBatch, and rebuilt the
// same way when rows are removed or reordered (Delete, Dedup,
// SortRows). A sized pass reserves each column's code vector once and
// allocates its decode table and encode table once, at the
// distinct-value count the column sketch estimates. An encode table is
// an open-addressing []int32 of code+1 per slot (the layout in set.go):
// a probe compares against the decode table, so the value → code index
// costs 4 bytes a slot instead of a map entry holding a 40-byte Value.
// Relations that are not maintaining one — NewResult answer relations
// and copies of them — pay nothing until a plan first joins against
// them: Encoding then builds the dictionary in one pass under the
// relation's lock, and Insert keeps it current from there on.

// colDict is one column's dictionary: the columnar code vector (row id
// → code) and the decode table (code → value). Codes are dense: the
// column's kth distinct value, in first-appearance order, has code k-1.
// Both slices are append-only, so snapshot clones share their backing
// arrays capped at the lengths they saw. The encode table (value → code)
// lives in the lineage, shared with every snapshot.
type colDict struct {
	codes []int32
	vals  []Value
}

// smallDictWidth is the column width below which the encode table is
// not worth its allocation: encode and lookup linear-scan the decode
// table instead. The many tiny delta relations flowing through
// updategram propagation never grow past it, so they never pay for one.
const smallDictWidth = 8

// repackFraction bounds the unindexed tail a shared packed code index
// may trail a snapshot by: a snapshot of n rows reuses the index packed
// at m rows while n-m <= m/repackFraction and scans codes[m:n] per
// probe; past that the index is re-packed at n. A re-pack costs O(n)
// once per n/repackFraction appended rows — O(repackFraction) row
// visits per appended row, whatever the relation's size.
const repackFraction = 64

// lineage is the index state shared by a dictionary and every snapshot
// cloned from it: the per-column value → code tables and packed code
// indexes. Sharing is sound because only the lineage's owner — the one
// dictionary still allowed to append — ever adds to it, and everything
// it adds describes codes and rows past what any snapshot can see: a
// snapshot treats a slot naming a code at or above its own width as a
// miss (it never reads the owner's decode table past its own) and reads a
// packed index only up to the row count it was packed at. A dictionary
// that rewrites its vectors (Delete, Dedup, SortRows) or that is a
// snapshot being inserted into leaves for a lineage of its own.
type lineage struct {
	// mu guards the encode tables: the owner adds values and swaps in
	// grown tables under the write side (and reads without it — it is the
	// only writer), snapshots look values up under the read side.
	mu sync.RWMutex
	// idxMu serializes packed-index builds and guards cols[i].packed.
	idxMu sync.Mutex
	cols  []lineageCol
}

// lineageCol is one column's shared index state. enc is nil until the
// owner's column reaches smallDictWidth, and from then on indexes every
// value of the owner's decode table. packed is the newest packed code
// index any member of the lineage built.
type lineageCol struct {
	enc    encodeTable
	packed *packedIndex
}

// encodeTable is a column's value → code index: slot s != 0 names code
// s-1, whose value is the decode table's entry, so the table stores no
// values of its own. Values sit at their Hash's home slot (set.go), so
// == values — +0 and -0 — share a probe sequence.
type encodeTable []int32

// newEncodeTable indexes every value of a decode table in a table of
// the given size (a power of two the values fill less than 3/4 of).
func newEncodeTable(vals []Value, size int) encodeTable {
	t := make(encodeTable, size)
	for code, v := range vals {
		place(t, v.Hash(), int32(code+1))
	}
	return t
}

// find returns v's code among the decode table vals — a slot naming a
// code at or above len(vals) is passed over, as a snapshot must — or,
// on a miss, the empty slot where v belongs. h is v.Hash().
func (t encodeTable) find(vals []Value, v Value, h uint64) (slot int, code int32, ok bool) {
	mask := len(t) - 1
	for i := homeSlot(h, len(t)); ; i = (i + 1) & mask {
		s := t[i]
		if s == 0 {
			return i, 0, false
		}
		if c := s - 1; int(c) < len(vals) && vals[c] == v {
			return i, c, true
		}
	}
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
// lineage's shared encode table, passing over codes the owner assigned
// after this dictionary was snapshotted.
func (d *Dict) Code(col int, v Value) (int32, bool) {
	c := &d.cols[col]
	if len(c.vals) <= smallDictWidth {
		return c.scan(v)
	}
	h := v.Hash()
	d.lin.mu.RLock()
	_, code, ok := d.lin.cols[col].enc.find(c.vals, v, h)
	d.lin.mu.RUnlock()
	return code, ok
}

// extend appends the codes of a run of rows — the rows right after the
// ones already encoded — growing the column dictionaries (and the
// lineage's encode tables) for values not seen before. widths, when not
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
// whole run; the decode table grows once to width, and an encode table
// it creates is sized to take width values, so a run whose width is
// known ahead allocates each of them exactly once. Growth past width
// falls back to append, and to doubling the encode table — one O(width)
// rehash per doubling. The encode table comes into existence exactly
// when an Insert loop over the same rows would create it: on the first
// row that finds smallDictWidth values already in the decode table. A
// table created here stays private until the run ends, since no
// snapshot reads it: every snapshot of a column without one is at most
// smallDictWidth wide, so it scans its decode table. A table the lineage
// already holds is written, and replaced when it grows, under the
// lineage's lock, as the snapshots sharing it read it concurrently.
func (d *Dict) extendCol(col int, rows []Tuple, width int) {
	c := &d.cols[col]
	c.codes = reserve(c.codes, len(rows))
	if width > len(c.vals) {
		c.vals = reserve(c.vals, width-len(c.vals))
	}
	var enc encodeTable
	if d.lin != nil {
		enc = d.lin.cols[col].enc
	}
	private := false
	for _, t := range rows {
		v := t[col]
		if enc == nil && len(c.vals) >= smallDictWidth {
			enc = newEncodeTable(c.vals, tableSlots(max(width, len(c.vals))))
			private = true
		}
		if enc == nil {
			code, ok := c.scan(v)
			if !ok {
				code = int32(len(c.vals))
				c.vals = append(c.vals, v)
			}
			c.codes = append(c.codes, code)
			continue
		}
		slot, code, ok := enc.find(c.vals, v, v.Hash())
		if !ok {
			code = int32(len(c.vals))
			c.vals = append(c.vals, v)
			switch {
			case full(len(c.vals), len(enc)):
				enc = newEncodeTable(c.vals, 2*len(enc))
				if !private {
					d.lin.mu.Lock()
					d.lin.cols[col].enc = enc
					d.lin.mu.Unlock()
				}
			case private:
				enc[slot] = code + 1
			default:
				d.lin.mu.Lock()
				enc[slot] = code + 1
				d.lin.mu.Unlock()
			}
		}
		c.codes = append(c.codes, code)
	}
	if private {
		lin := d.lineage()
		lin.mu.Lock()
		lin.cols[col].enc = enc
		lin.mu.Unlock()
	}
}

// decodeColumn reads column col of a DecodeColumns payload of n rows
// from the front of b — its decode table, then its code vector — checks
// it, installs it with room for spare more codes, and returns the bytes
// after it. The width and the code count are checked against the bytes
// left before either sizes anything. Each value must be of kind typ and
// unlike every other (by ==, so NaNs are never alike), and the codes
// must number the values in first-appearance order, each used by some
// row: the encoding an Insert per row builds. The encode table is made
// exactly when such an Insert loop makes it — when the rows before the
// last one use smallDictWidth values or more — sized for the width.
func (d *Dict) decodeColumn(col int, typ Type, b []byte, n, spare int) ([]byte, error) {
	width, sz := binary.Uvarint(b)
	if sz <= 0 || width > uint64(len(b)-sz)/minValueBytes {
		return nil, fmt.Errorf("claims %d values, more than %d bytes hold", width, len(b))
	}
	b = b[sz:]
	vals := make([]Value, width)
	for i := range vals {
		var err error
		if vals[i], b, err = decodeValue(b); err != nil {
			return nil, err
		}
		if vals[i].Kind != typ {
			return nil, fmt.Errorf("holds a %s value, want %s", vals[i].Kind, typ)
		}
	}
	count, sz := binary.Uvarint(b)
	w := codeBytes(int(width))
	if sz <= 0 || count > uint64(len(b)-sz)/uint64(w) {
		return nil, fmt.Errorf("claims %d codes, more than %d bytes hold", count, len(b))
	}
	if count != uint64(n) {
		return nil, fmt.Errorf("has %d codes for %d rows", count, n)
	}
	b = b[sz:]
	codes := make([]int32, n, n+spare)
	// next is the code whose first row is still to come; seen is how many
	// values the rows before the last one use.
	next, seen := 0, 0
	for i := range codes {
		c := 0
		for k := w - 1; k >= 0; k-- {
			c = c<<8 | int(b[i*w+k])
		}
		if i == n-1 {
			seen = next
		}
		switch {
		case c < next:
		case c >= len(vals):
			return nil, fmt.Errorf("code %d at or above its width %d", c, len(vals))
		case c > next:
			return nil, fmt.Errorf("code %d appears before code %d", c, next)
		default:
			next++
		}
		codes[i] = int32(c)
	}
	if next < len(vals) {
		return nil, fmt.Errorf("value %v is used by no row", vals[next])
	}
	enc := make(encodeTable, tableSlots(len(vals)))
	for code, v := range vals {
		slot, _, dup := enc.find(vals[:code], v, v.Hash())
		if dup {
			return nil, fmt.Errorf("value %v repeats", v)
		}
		enc[slot] = int32(code + 1)
	}
	if seen >= smallDictWidth {
		d.lineage().cols[col].enc = enc
	}
	d.cols[col] = colDict{codes: codes, vals: vals}
	return b[n*w:], nil
}

// clone snapshots the encoding in O(arity) (nil stays nil). The code
// vectors and decode tables are append-only under Insert, so the clone
// shares their backing arrays, capped at the current lengths: a later
// append by the source writes past the clone's cap (or reallocates) and
// never aliases what the clone can read. The clone joins the source's
// lineage without owning it, so encode tables and packed code indexes
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
	current := d != nil && r.encRows == r.n
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
// one exists (an imageless relation always has one). Caller holds r.mu.
func (r *Relation) ensureEncodingLocked() {
	if r.dict == nil || r.encRows != r.n {
		r.rebuildEncodingLocked()
	}
}

// addEncodingLocked folds rows, the relation's rows from index from on,
// into the dictionary encoding if it has tracked every row before it —
// one inserted row for Insert (widths nil: grow by append), a whole run
// for InsertBatch (widths from widthHintsLocked). A snapshot's dictionary
// being inserted into first leaves its source's lineage: the vectors
// reallocate on append (they are capped), and from then on its rows
// diverge from what the shared indexes describe. The relation's cached
// code-index views go stale (their tail just grew); the lineage's
// packed indexes stay. Caller holds r.mu.
func (r *Relation) addEncodingLocked(from int, rows []Tuple, widths []int) {
	if r.encRows != from {
		return // not maintained (NewResult, raw appends) until first joined
	}
	if r.dict == nil {
		r.dict = newDict(r.Schema.Arity())
	} else if !r.dict.owns {
		r.dict.lin, r.dict.owns = nil, true
	}
	r.dict.extend(rows, widths)
	r.encRows = from + len(rows)
	r.codeIdx = nil
}

// rebuildEncodingLocked recomputes the dictionary encoding from the
// current rows (after a removal or reorder invalidated the incremental
// one, or on a relation's first join) into fresh vectors and a fresh
// lineage, leaving whatever the old ones share with snapshots
// untouched. It is one sized pass wherever statistics are maintained.
// Caller holds r.mu, and the relation has its row image.
func (r *Relation) rebuildEncodingLocked() {
	r.dict = newDict(r.Schema.Arity())
	r.dict.extend(r.rows, r.widthHintsLocked())
	r.encRows = r.n
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
