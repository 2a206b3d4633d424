package relation

import "math/bits"

// This file holds the open-addressing layout shared by the package's
// hash tables: the dictionary's per-column encode tables (dict.go) and
// the tuple sets below. A table is a power-of-two []int32 of slots, each
// holding a 1-based number naming an entry the table keeps apart — a
// decode table's value, a tuple set's tuple (0 = empty) — probed
// linearly from a home slot. Equality is decided against the entry,
// never against the slot, so a slot costs 4 bytes whatever the keys
// weigh, and the slots are re-laid — every entry rehashed once — when
// the table is three quarters full. The entries themselves never move:
// a tuple set keeps its tuples in chunks, so growing it copies no tuple
// header.

// minTableSlots is the smallest table a set or encode table allocates.
const minTableSlots = 8

// tableSlots returns the slot count a table needs to hold n entries
// without growing: the smallest power of two, at least minTableSlots,
// that n fills to less than three quarters.
func tableSlots(n int) int {
	size := minTableSlots
	for full(n, size) {
		size *= 2
	}
	return size
}

// full reports whether a table of the given size holding n entries must
// grow before it takes another.
func full(n, size int) bool { return 4*n >= 3*size }

// homeSlot is where the probe for hash h starts in a table of size
// slots: the top bits of h times the 64-bit golden ratio (Fibonacci
// hashing). FNV-1a's low bits follow the key's low bits — ints that are
// multiples of a power of two would share a home — and the multiply
// folds every bit of h into the top ones.
func homeSlot(h uint64, size int) int {
	return int((h * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros(uint(size))))
}

// place puts entry number n into the first empty slot of hash h's probe
// sequence — the insert of a rehash, whose entries are known distinct.
func place(slots []int32, h uint64, n int32) {
	mask := len(slots) - 1
	i := homeSlot(h, len(slots))
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = n
}

// tupleTable is the one tuple hash table behind TupleSet and each
// ShardedTupleSet shard. It holds the distinct tuples in the order they
// were added, in chunks that never move: chunk 0 has room for first
// tuples and chunk c ≥ 1 for first<<(c-1), so entry k's chunk follows
// from k alone and a full table adds a chunk instead of copying every
// tuple header into a larger slice. hashes holds each entry's
// Tuple.Hash in one flat slice, and slot s != 0 names entry s-1. A
// probe compares the stored hash first, so a slot of another tuple
// costs an integer comparison, not a walk into its values, and a rehash
// recomputes no tuple hash and re-lays only the slots; membership is
// then confirmed with an exact comparison. The set never allocates
// per-probe key strings the way a map[string]bool over Tuple.Key
// would, and never a per-hash bucket slice. The zero value is an empty
// table.
type tupleTable struct {
	chunks [][]Tuple
	first  int // capacity of chunks[0]; 0 until the first chunk exists
	n      int
	hashes []uint64
	slots  []int32
}

// newTupleTable returns an empty table sized for n tuples.
func newTupleTable(n int) tupleTable {
	first := max(n, minTableSlots)
	return tupleTable{
		chunks: [][]Tuple{make([]Tuple, 0, first)},
		first:  first,
		hashes: make([]uint64, 0, n),
		slots:  make([]int32, tableSlots(n)),
	}
}

// entry returns the k-th tuple added (0-based).
func (tt *tupleTable) entry(k int) Tuple {
	if k < tt.first {
		return tt.chunks[0][k]
	}
	c := bits.Len(uint(k / tt.first)) // k in [first<<(c-1), first<<c)
	return tt.chunks[c][k-tt.first<<(c-1)]
}

// push appends t after the last entry, starting a chunk when the last
// one is full.
func (tt *tupleTable) push(t Tuple) {
	last := len(tt.chunks) - 1
	if last < 0 || len(tt.chunks[last]) == cap(tt.chunks[last]) {
		if last < 0 {
			tt.first = minTableSlots
		}
		tt.chunks = append(tt.chunks, make([]Tuple, 0, tt.first<<max(last, 0)))
		last++
	}
	tt.chunks[last] = append(tt.chunks[last], t)
	tt.n++
}

// appendTo appends the table's tuples, in the order they were added,
// to dst.
func (tt *tupleTable) appendTo(dst []Tuple) []Tuple {
	for _, c := range tt.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// find returns the slot holding a tuple equal to t (found) or the empty
// slot where t belongs. h is t.Hash().
func (tt *tupleTable) find(t Tuple, h uint64) (slot int, found bool) {
	mask := len(tt.slots) - 1
	for i := homeSlot(h, len(tt.slots)); ; i = (i + 1) & mask {
		s := tt.slots[i]
		if s == 0 {
			return i, false
		}
		if tt.hashes[s-1] == h && tt.entry(int(s-1)).Equal(t) {
			return i, true
		}
	}
}

// add inserts t and reports whether it was absent. h is t.Hash().
func (tt *tupleTable) add(t Tuple, h uint64) bool {
	slot, found := tt.lookup(t, h)
	if !found {
		tt.insert(slot, t, h)
	}
	return !found
}

// lookup is find on a table that may not have slots yet: it allocates
// the first ones.
func (tt *tupleTable) lookup(t Tuple, h uint64) (slot int, found bool) {
	if tt.slots == nil {
		tt.slots = make([]int32, minTableSlots)
	}
	return tt.find(t, h)
}

// insert adds t, known absent, at the empty slot lookup returned for it
// and grows the slots when they are full. h is t.Hash().
func (tt *tupleTable) insert(slot int, t Tuple, h uint64) {
	tt.push(t)
	tt.hashes = append(tt.hashes, h)
	tt.slots[slot] = int32(tt.n)
	if full(tt.n, len(tt.slots)) {
		tt.slots = make([]int32, 2*len(tt.slots))
		for k, eh := range tt.hashes {
			place(tt.slots, eh, int32(k+1))
		}
	}
}

// contains reports membership. h is t.Hash().
func (tt *tupleTable) contains(t Tuple, h uint64) bool {
	if tt.slots == nil {
		return false
	}
	_, found := tt.find(t, h)
	return found
}

// TupleSet is a hash set of tuples used for duplicate elimination on hot
// paths: one tupleTable.
type TupleSet struct {
	tab tupleTable
}

// NewTupleSet returns an empty set sized for roughly n tuples.
func NewTupleSet(n int) *TupleSet {
	return &TupleSet{tab: newTupleTable(n)}
}

// Add inserts t and reports whether it was absent. The set keeps a
// reference to t; callers must not mutate it afterwards.
func (s *TupleSet) Add(t Tuple) bool { return s.tab.add(t, t.Hash()) }

// Contains reports membership without inserting.
func (s *TupleSet) Contains(t Tuple) bool { return s.tab.contains(t, t.Hash()) }

// Len returns the number of distinct tuples added.
func (s *TupleSet) Len() int { return s.tab.n }
