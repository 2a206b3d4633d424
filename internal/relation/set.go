package relation

import "math/bits"

// This file holds the open-addressing layout shared by the package's
// hash tables: the dictionary's per-column encode tables (dict.go) and
// the tuple set below. A table is a power-of-two []int32 of slots, each
// holding a 1-based number naming an entry the table keeps apart — a
// decode table's value, a tuple set's tuple (0 = empty) — probed
// linearly from a home slot. Equality is decided against the entry,
// never against the slot, so a slot costs 4 bytes whatever the keys
// weigh, and an encode table's slots are re-laid — every entry
// rehashed once — when the table is three quarters full.

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

// tupleSet is the hash set Dedup and Equal find duplicate rows
// through. It keeps the distinct tuples in the order they were added,
// each one's Tuple.Hash, and slots sized up front for the most tuples
// it will hold, so it never grows. Slot s != 0 names rows[s-1]; a
// probe compares the stored hash first, so a slot of another tuple
// costs an integer comparison, and confirms a match with Tuple.Equal
// (==, so +0 and -0 are one value).
type tupleSet struct {
	rows   []Tuple
	hashes []uint64
	slots  []int32
}

// newTupleSet returns an empty set for at most n tuples. The tuples it
// admits are appended to into[:0], which may be the slice being
// deduplicated: the set writes a row no later than it reads it.
func newTupleSet(n int, into []Tuple) tupleSet {
	return tupleSet{rows: into[:0], hashes: make([]uint64, 0, n), slots: make([]int32, tableSlots(n))}
}

// find returns the slot holding a tuple equal to t (found) or the empty
// slot where t belongs. h is t.Hash().
func (s *tupleSet) find(t Tuple, h uint64) (slot int, found bool) {
	mask := len(s.slots) - 1
	for i := homeSlot(h, len(s.slots)); ; i = (i + 1) & mask {
		k := s.slots[i]
		if k == 0 {
			return i, false
		}
		if s.hashes[k-1] == h && s.rows[k-1].Equal(t) {
			return i, true
		}
	}
}

// add inserts t and reports whether it was absent. The set keeps a
// reference to t.
func (s *tupleSet) add(t Tuple) bool {
	h := t.Hash()
	slot, found := s.find(t, h)
	if !found {
		s.rows = append(s.rows, t)
		s.hashes = append(s.hashes, h)
		s.slots[slot] = int32(len(s.rows))
	}
	return !found
}

// contains reports membership.
func (s *tupleSet) contains(t Tuple) bool {
	_, found := s.find(t, t.Hash())
	return found
}
