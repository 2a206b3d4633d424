package relation

import "sync"

// ShardedTupleSet is a concurrency-safe tuple hash set for duplicate
// elimination across union branches executing in parallel. The key
// space is split into power-of-two shards by the low bits of the tuple
// hash; each shard is an independently locked tupleTable (set.go), so
// goroutines adding unrelated tuples proceed without contention and two
// branches producing the same tuple serialize only on that tuple's
// shard.
type ShardedTupleSet struct {
	mask   uint64
	shards []tupleShard
}

// tupleShard is one lock-striped slice of the set, padded to two full
// 64-byte cache lines (8B mutex + 88B table + 32B pad) so uncontended
// Adds on neighbouring shards do not false-share.
type tupleShard struct {
	mu  sync.Mutex
	tab tupleTable
	_   [32]byte
}

// NewShardedTupleSet returns an empty set with at least the given
// number of shards (rounded up to a power of two, minimum 1). A good
// shard count is a small multiple of the worker count. A shard
// allocates its table on its first Add.
func NewShardedTupleSet(shards int) *ShardedTupleSet {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &ShardedTupleSet{mask: uint64(n - 1), shards: make([]tupleShard, n)}
}

// shard picks the shard for hash h. The shard's table takes its home
// slot from the top bits of the mixed hash (homeSlot), so taking the
// low bits here does not correlate with in-shard placement.
func (s *ShardedTupleSet) shard(h uint64) *tupleShard {
	return &s.shards[h&s.mask]
}

// Add inserts t and reports whether it was absent, linearizable across
// goroutines: for any tuple value, exactly one concurrent Add returns
// true. The set keeps a reference to t; callers must not mutate it
// afterwards.
func (s *ShardedTupleSet) Add(t Tuple) bool {
	h := t.Hash()
	sh := s.shard(h)
	sh.mu.Lock()
	added := sh.tab.add(t, h)
	sh.mu.Unlock()
	return added
}

// Contains reports membership without inserting.
func (s *ShardedTupleSet) Contains(t Tuple) bool {
	h := t.Hash()
	sh := s.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tab.contains(t, h)
}

// Len returns the number of distinct tuples added. It locks each shard
// in turn, so concurrent with in-flight Adds it reports some valid
// intermediate count.
func (s *ShardedTupleSet) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.tab.n
		sh.mu.Unlock()
	}
	return total
}

// Tuples returns every distinct tuple added, shard by shard and in
// each shard's insertion order, in one slice of exactly that length.
// It is meant for after the adds: concurrent with in-flight Adds it
// returns some valid intermediate contents.
func (s *ShardedTupleSet) Tuples() []Tuple {
	n := s.Len()
	if n == 0 {
		return nil
	}
	out := make([]Tuple, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = sh.tab.appendTo(out)
		sh.mu.Unlock()
	}
	return out
}
