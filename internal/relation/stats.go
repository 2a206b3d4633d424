package relation

import (
	"math"
	"sort"
)

// This file maintains cheap per-relation statistics for the cost-based
// join planner (internal/cq): a row count plus a per-column distinct-
// value estimate from a small fixed-size KMV (k-minimum-values) sketch.
// The sketches are updated incrementally on Insert — one hash and one
// bounded sorted-insert per column — folded over a whole run in one
// column-at-a-time pass by InsertBatch, and rebuilt in one pass when
// rows are removed (Delete), so Stats is always O(columns) to read.
// A KMV sketch keeps the smallest distinct hashes whatever order they
// arrive in, so all three leave the same sketch bits for the same rows.
// NewResult relations, and copies of them, carry no sketches; Stats
// reports that by returning a nil Distinct slice and the planner falls
// back to the statistics-free greedy order.

// sketchK is the number of minimum hash values each column sketch
// retains. 64 gives a relative standard error of about 1/sqrt(62) ≈ 13%
// — ample for join ordering, where misestimates only hurt when they
// cross relation-size ratios — at a cost of 512 bytes per column.
const sketchK = 64

// colSketch is a KMV distinct-count sketch over one column: the sketchK
// smallest distinct value hashes seen, sorted ascending. With fewer
// than sketchK entries the count is exact; once full, the fraction of
// the hash space covered by the kth minimum estimates the total.
type colSketch struct {
	hs []uint64
}

// mix64 is the murmur3 finalizer: a bijective scrambler applied to
// Value.Hash before sketching. The KMV estimator needs hashes uniform
// across the whole 64-bit space, and raw FNV-1a of short strings is
// badly skewed in its high bits — enough to overestimate distinct
// counts severalfold. Bijectivity keeps exact-duplicate detection
// inside the sketch intact.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// add folds one value hash into the sketch. Once the sketch is full,
// hashes at or above the current kth minimum return immediately, so the
// steady-state insert cost is one comparison.
func (s *colSketch) add(h uint64) {
	h = mix64(h)
	n := len(s.hs)
	if n == sketchK && h >= s.hs[n-1] {
		return
	}
	i := sort.Search(n, func(i int) bool { return s.hs[i] >= h })
	if i < n && s.hs[i] == h {
		return
	}
	if n < sketchK {
		if s.hs == nil {
			s.hs = make([]uint64, 0, sketchK) // full capacity: one alloc ever
		}
		s.hs = append(s.hs, 0)
	}
	copy(s.hs[i+1:], s.hs[i:])
	s.hs[i] = h
}

// distinct returns the estimated number of distinct values.
func (s *colSketch) distinct() float64 {
	n := len(s.hs)
	if n < sketchK {
		return float64(n) // exact: every distinct hash fit
	}
	// KMV estimator: if the kth smallest of D uniform hashes sits at
	// fraction f of the hash space, D ≈ (k-1)/f.
	f := float64(s.hs[n-1]) / float64(math.MaxUint64)
	if f <= 0 {
		return float64(n)
	}
	return float64(sketchK-1) / f
}

// clone deep-copies the sketch.
func (s colSketch) clone() colSketch {
	hs := make([]uint64, len(s.hs))
	copy(hs, s.hs)
	return colSketch{hs: hs}
}

// cloneSketches deep-copies a sketch slice (nil stays nil).
func cloneSketches(src []colSketch) []colSketch {
	if src == nil {
		return nil
	}
	out := make([]colSketch, len(src))
	for i := range src {
		out[i] = src[i].clone()
	}
	return out
}

// Stats summarizes a relation for the cost-based planner: the row
// count, a per-column distinct-value estimate, and the relation version
// the summary was taken at (so plan caches can tell whether the
// statistics a plan was built from are still current).
//
// Distinct is nil when the relation's statistics are not maintained —
// it was made by NewResult, or copied from such a relation. Planners treat that as "statistics absent" and fall back to
// cardinality-free heuristics.
type Stats struct {
	// Rows is the tuple count (bag semantics, duplicates included).
	Rows int
	// Distinct estimates the number of distinct values per column;
	// exact below sketchK distinct values, within ~13% above. Nil when
	// statistics are not maintained for this relation.
	Distinct []float64
	// Version is the relation's mutation counter at summary time.
	Version uint64
}

// Stats returns the relation's current statistics summary. It is safe
// to call concurrently with Insert (the single permitted writer) and
// with other readers; the sketches and row count are read under the
// relation's lock.
func (r *Relation) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := Stats{Rows: r.n, Version: r.version}
	if r.statRows != r.n {
		return st // NewResult lineage: statistics not maintained
	}
	st.Distinct = make([]float64, r.Schema.Arity())
	for col := range r.sketches {
		st.Distinct[col] = r.sketches[col].distinct()
	}
	return st
}

// HasStats reports whether distinct-value statistics are maintained for
// this relation (every row was absorbed on insert, or the sketches were
// rebuilt after a removal).
func (r *Relation) HasStats() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.statRows == r.n
}

// addStatsLocked folds rows, the relation's rows from index from on,
// into the column sketches if they have tracked every row before it —
// one inserted row for Insert, a whole run for InsertBatch. Caller holds
// r.mu.
func (r *Relation) addStatsLocked(from int, rows []Tuple) {
	if r.statRows != from {
		return // NewResult lineage: stay invalid
	}
	if r.sketches == nil {
		r.sketches = make([]colSketch, r.Schema.Arity())
	}
	for col := range r.sketches {
		s := &r.sketches[col]
		for _, t := range rows {
			s.add(t[col].Hash())
		}
	}
	r.statRows = from + len(rows)
}

// rebuildStatsLocked recomputes every column sketch from the current
// rows (after a removal invalidated the incremental ones). Caller holds
// r.mu, and the relation has its row image.
func (r *Relation) rebuildStatsLocked() {
	r.sketches, r.statRows = nil, 0
	r.addStatsLocked(0, r.rows)
}

// width returns how many distinct values a decode table should be
// sized for: the exact count while the sketch holds every distinct hash,
// and otherwise the estimate padded by two relative standard errors
// (1/sqrt(sketchK-2) ≈ 13% each, so a quarter), because an estimate
// that falls short makes the table grow — and double — on the last few
// values.
func (s *colSketch) width() int {
	d := s.distinct()
	if len(s.hs) == sketchK {
		d += d / 4
	}
	return int(math.Ceil(d))
}

// widthHintsLocked returns, per column, the decode-table width the
// sketches call for (see colSketch.width), capped at the row count: the
// size a bulk encoding pass allocates each decode table and encode table
// at. It is nil when statistics are not maintained. Caller holds r.mu.
func (r *Relation) widthHintsLocked() []int {
	if r.statRows != r.n || len(r.sketches) != r.Schema.Arity() {
		return nil
	}
	widths := make([]int, len(r.sketches))
	for col := range r.sketches {
		widths[col] = min(r.sketches[col].width(), r.n)
	}
	return widths
}
