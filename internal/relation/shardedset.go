package relation

import "sync"

// ShardedTupleSet is a concurrency-safe tuple hash set for duplicate
// elimination across union branches executing in parallel. The key
// space is split into power-of-two shards by the low bits of the tuple
// hash; each shard is an independently locked tupleTable (set.go), so
// goroutines adding unrelated tuples proceed without contention and two
// branches producing the same tuple serialize only on that tuple's
// shard. Add only reads its argument and copies on admit: the set holds
// its own copy of each distinct tuple, so a caller can probe with one
// reused scratch tuple and pays for a tuple only when it is new.
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

// valueBlockLen is how many values a fresh value block holds (40 KB):
// one allocation serves hundreds of copies.
const valueBlockLen = 1024

// valueBlock is the part of a block of values that no copy has taken
// yet.
type valueBlock struct{ vals []Value }

// valueBlocks passes the value blocks that copies are cut from between
// Adds, on every set: a copy takes the front of a block and the rest
// goes back for the next one, so a set leaves no half-used block of its
// own behind — a block per shard cost a union of 3 200 distinct answers
// 25 KB more per query — and a copy, once cut, is never written again.
var valueBlocks = sync.Pool{New: func() any { return new(valueBlock) }}

// own copies t into values no other copy shares and returns the copy.
func own(t Tuple) Tuple {
	if len(t) == 0 {
		return Tuple{}
	}
	b := valueBlocks.Get().(*valueBlock)
	if len(b.vals) < len(t) {
		b.vals = make([]Value, max(valueBlockLen, len(t)))
	}
	c := Tuple(b.vals[:len(t):len(t)])
	b.vals = b.vals[len(t):]
	valueBlocks.Put(b)
	copy(c, t)
	return c
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

// Add admits a copy of t when the set holds no tuple equal to it and
// returns that copy and true; otherwise it returns nil and false. It is
// linearizable across goroutines: for any tuple value, exactly one
// concurrent Add returns true. Add only reads t, so a caller may reuse
// it as scratch; the copy belongs to the set, never moves or changes,
// and is the tuple Tuples hands back, so callers may keep it.
func (s *ShardedTupleSet) Add(t Tuple) (Tuple, bool) {
	h := t.Hash()
	sh := s.shard(h)
	sh.mu.Lock()
	slot, found := sh.tab.lookup(t, h)
	var c Tuple
	if !found {
		c = own(t)
		sh.tab.insert(slot, c, h)
	}
	sh.mu.Unlock()
	return c, !found
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

// Tuples returns the set's copy of every distinct tuple added, shard by
// shard and in each shard's insertion order, in one slice of exactly
// that length. It is meant for after the adds: concurrent with
// in-flight Adds it returns some valid intermediate contents.
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
