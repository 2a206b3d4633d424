package relation

// TupleSet is a hash set of tuples used for duplicate elimination on hot
// paths. It buckets by Tuple.Hash and confirms membership with an exact
// comparison, so it never allocates per-probe key strings the way a
// map[string]bool over Tuple.Key would.
type TupleSet struct {
	buckets map[uint64][]Tuple
	n       int
}

// NewTupleSet returns an empty set sized for roughly n tuples.
func NewTupleSet(n int) *TupleSet {
	return &TupleSet{buckets: make(map[uint64][]Tuple, n)}
}

// Add inserts t and reports whether it was absent. The set keeps a
// reference to t; callers must not mutate it afterwards.
func (s *TupleSet) Add(t Tuple) bool {
	h := t.Hash()
	for _, u := range s.buckets[h] {
		if u.Equal(t) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], t)
	s.n++
	return true
}

// Contains reports membership without inserting.
func (s *TupleSet) Contains(t Tuple) bool {
	for _, u := range s.buckets[t.Hash()] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// Len returns the number of distinct tuples added.
func (s *TupleSet) Len() int { return s.n }
