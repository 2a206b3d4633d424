package relation

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// added drops the tuple ShardedTupleSet.Add returns and keeps whether
// it admitted one.
func added(_ Tuple, ok bool) bool { return ok }

func TestShardedTupleSetBasics(t *testing.T) {
	s := NewShardedTupleSet(8)
	a := Tuple{SV("x"), IV(1)}
	c, ok := s.Add(a)
	if !ok || !c.Equal(a) {
		t.Errorf("first Add = %v, %v; want a copy of %v, true", c, ok, a)
	}
	if &c[0] == &a[0] {
		t.Error("first Add returned its argument, not a copy")
	}
	if c, ok := s.Add(Tuple{SV("x"), IV(1)}); ok || c != nil {
		t.Errorf("duplicate Add = %v, %v; want nil, false", c, ok)
	}
	if !added(s.Add(Tuple{SV("x"), IV(2)})) {
		t.Error("distinct Add = false")
	}
	if !added(s.Add(Tuple{})) || added(s.Add(Tuple{})) {
		t.Error("the empty tuple is not admitted exactly once")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(a) || s.Contains(Tuple{SV("y"), IV(1)}) {
		t.Error("Contains wrong")
	}
}

// TestShardedTupleSetCopiesOnAdmit reuses one scratch tuple for every
// Add, overwriting it after each, as a parallel union's worker does:
// the set must hold, and Tuples return, the values each Add was called
// with, and every admitted copy must keep them.
func TestShardedTupleSetCopiesOnAdmit(t *testing.T) {
	const n = 1000 // 2 000 values: copies cut from more than one value block
	s := NewShardedTupleSet(4)
	scratch := make(Tuple, 2)
	var copies []Tuple
	for i := 0; i < n; i++ {
		scratch[0], scratch[1] = SV(fmt.Sprintf("k%d", i)), IV(int64(i))
		c, ok := s.Add(scratch)
		if !ok {
			t.Fatalf("Add #%d reported a duplicate", i)
		}
		copies = append(copies, c)
		scratch[0], scratch[1] = SV("mutated"), IV(-1)
	}
	if s.Contains(Tuple{SV("mutated"), IV(-1)}) {
		t.Error("the set holds the scratch tuple's last contents")
	}
	for i, c := range copies {
		want := Tuple{SV(fmt.Sprintf("k%d", i)), IV(int64(i))}
		if !c.Equal(want) || !s.Contains(want) {
			t.Fatalf("admitted copy #%d reads %v, want %v", i, c, want)
		}
	}
	all := s.Tuples()
	if len(all) != n {
		t.Fatalf("Tuples: %d, want %d", len(all), n)
	}
	seen := NewTupleSet(n)
	for _, tup := range all {
		if len(tup) != 2 || !tup.Equal(Tuple{SV(fmt.Sprintf("k%d", tup[1].I)), tup[1]}) || !seen.Add(tup) {
			t.Fatalf("Tuples handed back %v", tup)
		}
	}
}

func TestShardedTupleSetShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16},
	} {
		s := NewShardedTupleSet(tc.ask)
		if len(s.shards) != tc.want {
			t.Errorf("NewShardedTupleSet(%d): %d shards, want %d",
				tc.ask, len(s.shards), tc.want)
		}
	}
}

// TestShardedTupleSetConcurrentExactlyOnce hammers one set from many
// goroutines inserting overlapping key ranges: for every distinct
// tuple, exactly one Add across all goroutines may return true. Run
// under -race this also exercises the shard locking.
func TestShardedTupleSetConcurrentExactlyOnce(t *testing.T) {
	const (
		workers  = 8
		distinct = 2000
	)
	s := NewShardedTupleSet(workers)
	var wins atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Each worker walks the full key space from a different
			// offset, so every tuple is contended by all workers, and
			// probes with one scratch tuple it overwrites per key.
			scratch := make(Tuple, 2)
			for i := 0; i < distinct; i++ {
				k := (i + w*distinct/workers) % distinct
				scratch[0], scratch[1] = SV(fmt.Sprintf("k%d", k)), IV(int64(k%7))
				if c, ok := s.Add(scratch); ok {
					if !c.Equal(Tuple{SV(fmt.Sprintf("k%d", k)), IV(int64(k % 7))}) {
						t.Errorf("winning Add of k%d returned %v", k, c)
					}
					wins.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := wins.Load(); got != distinct {
		t.Errorf("winning Adds = %d, want exactly %d", got, distinct)
	}
	if s.Len() != distinct {
		t.Errorf("Len = %d, want %d", s.Len(), distinct)
	}
	for i := 0; i < distinct; i++ {
		if !s.Contains(Tuple{SV(fmt.Sprintf("k%d", i)), IV(int64(i % 7))}) {
			t.Fatalf("tuple k%d missing after concurrent insert", i)
		}
	}
	for _, tup := range s.Tuples() {
		k, _ := strconv.Atoi(tup[0].S[1:])
		if !tup.Equal(Tuple{SV(fmt.Sprintf("k%d", k)), IV(int64(k % 7))}) {
			t.Fatalf("set holds %v, a tuple no worker added", tup)
		}
	}
}
