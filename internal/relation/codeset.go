package relation

// CodeSet is a hash set of dictionary-code vectors, the batch kernel's
// dedup set: answers stay as []int32 codes right through duplicate
// elimination, so dedup hashes and compares ints instead of Value
// structs. The layout is open-addressing over a flat slab — table
// holds 1-based entry numbers, entry k's codes live at slab[(k-1)*arity
// : k*arity] — so a steady-state Add allocates nothing: vectors are
// copied into the slab (callers may reuse the probe buffer) and probes
// are array reads, no per-entry boxing. All vectors of one set share an
// arity, fixed by the first Add after construction or Reset.
type CodeSet struct {
	arity int
	table []int32 // 1-based entry numbers; 0 = empty slot
	mask  uint64
	slab  []int32 // entry k-1 at [k*arity : (k+1)*arity)
	n     int
}

// codeSetMinTable is the initial probe-table size (a power of two).
const codeSetMinTable = 16

// NewCodeSet returns an empty set sized for roughly n vectors.
func NewCodeSet(n int) *CodeSet {
	size := codeSetMinTable
	for size < 2*n {
		size *= 2
	}
	return &CodeSet{table: make([]int32, size), mask: uint64(size - 1)}
}

// hashCodes is FNV-1a over the vector's int32s, one round per whole
// code rather than per byte — a quarter of the multiplies, and dense
// dictionary codes still spread well across buckets (collisions only
// cost an entry comparison).
func hashCodes(v []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range v {
		h ^= uint64(uint32(c))
		h *= prime64
	}
	return h
}

// Add inserts the code vector and reports whether it was absent. The
// vector is copied on first sight, so the caller may reuse v.
func (s *CodeSet) Add(v []int32) bool {
	if s.n == 0 {
		s.arity = len(v)
	}
	if s.arity == 0 {
		// Zero-arity vectors are all equal; the set holds at most one.
		if s.n > 0 {
			return false
		}
		s.n = 1
		return true
	}
	h := hashCodes(v)
	i := h & s.mask
	for {
		k := s.table[i]
		if k == 0 {
			break
		}
		e := s.slab[(int(k)-1)*s.arity : int(k)*s.arity]
		same := true
		for j := range v {
			if e[j] != v[j] {
				same = false
				break
			}
		}
		if same {
			return false
		}
		i = (i + 1) & s.mask
	}
	s.slab = append(s.slab, v...)
	s.n++
	s.table[i] = int32(s.n)
	if 4*s.n >= 3*len(s.table) {
		s.grow()
	}
	return true
}

// grow doubles the probe table and rehashes every entry from the slab.
func (s *CodeSet) grow() {
	size := 2 * len(s.table)
	s.table = make([]int32, size)
	s.mask = uint64(size - 1)
	for k := 1; k <= s.n; k++ {
		e := s.slab[(k-1)*s.arity : k*s.arity]
		i := hashCodes(e) & s.mask
		for s.table[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = int32(k)
	}
}

// Len returns the number of distinct vectors added.
func (s *CodeSet) Len() int { return s.n }

// Vectors returns the distinct vectors back to back, in the order they
// were first added: vector k at [k*arity : (k+1)*arity]. The slice is
// the set's own and valid until the next Add or Reset.
func (s *CodeSet) Vectors() []int32 { return s.slab }

// Reset empties the set while keeping its allocated capacity — the
// probe table and slab are reused by the next round of Adds — so a
// pooled executor pays no per-query set construction. The next Add
// fixes a fresh arity.
func (s *CodeSet) Reset() {
	clear(s.table)
	s.slab = s.slab[:0]
	s.n = 0
}
