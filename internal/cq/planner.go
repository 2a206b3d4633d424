package cq

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/relation"
)

// This file is the statistics-driven side of query compilation: a
// cardinality estimator over relation.Stats (row counts plus per-column
// distinct-value sketches, maintained incrementally on insert) and a
// greedy cost-based join orderer that picks the atom order — and the
// probe index per atom — by estimated intermediate-result size. When
// any body relation lacks statistics (a NewResult relation, or a copy
// of one), or when CompileOptions.ForceGreedy asks for
// it, compilation falls back to the statistics-free greedy order the
// engine has always used, so the planner never needs stats to be
// correct — only to be fast. Differential tests pin cost-based ≡
// greedy ≡ reference answer sets.

// CompileOptions tunes one compilation; the zero value is the default
// (cost-based planning whenever statistics are available).
type CompileOptions struct {
	// ForceGreedy disables the cost-based join orderer, always using
	// the static greedy order (most already-bound distinct variables
	// first, ties to fewer free variables, then body order) and
	// first-candidate probe columns. This is the reference planning
	// mode the differential tests hold the cost-based planner to, and
	// the behavior of relations without statistics.
	ForceGreedy bool
}

// orderGreedy returns the statistics-free join order as indexes into
// q.Body: the atom with the most already-bound distinct variables next,
// ties broken toward fewer free variables, then body order — the same
// heuristic the reference interpreter applies dynamically (the bound
// set after k joins is deterministic, so the order can be fixed at
// compile time).
func orderGreedy(q Query) []int {
	vars := atomVarLists(q)
	remaining := newRemaining(len(q.Body))
	bound := make(map[string]bool)
	order := make([]int, 0, len(q.Body))
	for len(remaining) > 0 {
		best, bestScore, bestFree := 0, -1, 1<<30
		for ri, ai := range remaining {
			score, free := 0, 0
			for _, v := range vars[ai] {
				if bound[v] {
					score++
				} else {
					free++
				}
			}
			if score > bestScore || (score == bestScore && free < bestFree) {
				best, bestScore, bestFree = ri, score, free
			}
		}
		order, remaining = takeAtom(vars, order, remaining, best, bound)
	}
	return order
}

// atomVarLists hoists each atom's distinct-variable list once per
// compile, so the O(atoms²) scoring loops below never re-derive them
// (Atom.Vars allocates a map and slice per call).
func atomVarLists(q Query) [][]string {
	out := make([][]string, len(q.Body))
	for i, a := range q.Body {
		out[i] = a.Vars()
	}
	return out
}

// orderByCost returns the cost-based join order plus, aligned with it,
// the estimated intermediate-result size after each join step and the
// estimated total cost (rows examined across the join). At every step
// it picks the remaining atom producing the smallest estimated
// intermediate result — System-R-style greedy ordering, which for the
// small bodies conjunctive queries have is indistinguishable from
// exhaustive enumeration in practice. Ties break toward the smaller
// relation, then body order, keeping plans deterministic.
func orderByCost(q Query, stats []relation.Stats) (order []int, estRows []float64, estCost float64) {
	vars := atomVarLists(q)
	remaining := newRemaining(len(q.Body))
	bound := make(map[string]bool)
	order = make([]int, 0, len(q.Body))
	estRows = make([]float64, 0, len(q.Body))
	size := 1.0
	for len(remaining) > 0 {
		best := -1
		var bestOut, bestRows float64
		for ri, ai := range remaining {
			out := size * atomFanout(q.Body[ai], stats[ai], bound)
			rows := float64(stats[ai].Rows)
			if best < 0 || out < bestOut || (out == bestOut && rows < bestRows) {
				best, bestOut, bestRows = ri, out, rows
			}
		}
		// The step examines at least one candidate row per intermediate
		// row (index probe), and at least the rows it emits.
		estCost += math.Max(bestOut, size)
		size = bestOut
		estRows = append(estRows, size)
		order, remaining = takeAtom(vars, order, remaining, best, bound)
	}
	return order, estRows, estCost
}

// takeAtom moves remaining[ri] into the order and marks its variables
// bound; vars holds the per-atom distinct-variable lists.
func takeAtom(vars [][]string, order, remaining []int, ri int, bound map[string]bool) ([]int, []int) {
	ai := remaining[ri]
	remaining = append(remaining[:ri], remaining[ri+1:]...)
	order = append(order, ai)
	for _, v := range vars[ai] {
		bound[v] = true
	}
	return order, remaining
}

func newRemaining(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// atomFanout estimates how many rows of the atom's relation match one
// intermediate row, given which variables are bound: the relation's row
// count scaled by 1/distinct(col) for every column holding a constant,
// an already-bound variable, or a repeated variable of this atom —
// the textbook independent-selectivity model. Distinct counts come from
// the per-column sketches; the result can drop below one (a selective
// probe usually matches zero or one row).
func atomFanout(a Atom, st relation.Stats, bound map[string]bool) float64 {
	out := float64(st.Rows)
	if out == 0 {
		return 0
	}
	var seenHere []string
	for col, t := range a.Args {
		selective := false
		if !t.IsVar {
			selective = true
		} else if bound[t.Var] {
			selective = true
		} else {
			repeat := false
			for _, v := range seenHere {
				if v == t.Var {
					repeat = true
					break
				}
			}
			if repeat {
				selective = true
			} else {
				seenHere = append(seenHere, t.Var)
			}
		}
		if selective {
			d := st.Distinct[col]
			if d < 1 {
				d = 1
			}
			out /= d
		}
	}
	return out
}

// bestProbeCol picks the probe column for an atom under cost-based
// planning: among the columns answerable by an index (constant or
// already-bound variable), the one with the most distinct values — the
// most selective probe, so the index hands back the fewest candidate
// rows. boundSlot reports whether a variable is bound and its slot.
// Returns the column, the slot (when the probe is a variable), and
// whether it is a variable probe; col is -1 when no column qualifies.
func bestProbeCol(a Atom, st relation.Stats, boundSlot func(string) int) (col, slot int, isVar bool) {
	col = -1
	bestD := -1.0
	for c, t := range a.Args {
		var s int
		v := false
		if t.IsVar {
			s = boundSlot(t.Var)
			if s < 0 {
				continue
			}
			v = true
		}
		d := st.Distinct[c]
		if d > bestD {
			bestD, col, slot, isVar = d, c, s, v
		}
	}
	return col, slot, isVar
}

// EstimatedCost returns the planner's estimate of the total rows this
// plan examines when executed — the cost the union-branch budgeter
// orders and batches branches by. For cost-based plans it is the
// modeled cost; for greedy-fallback plans it is the driver (first)
// atom's row count.
func (p *Plan) EstimatedCost() float64 { return p.estCost }

// estCostLive returns the cost estimate a limited union orders its
// branches by. Cost-based plans use the compile-time model — their
// orders bake in the statistics anyway, and callers are expected to
// recompile when data changes (see the Plan doc). Greedy plans have no
// model, only the driver-rows proxy, so they read the driver
// relation's current row count: a statistics-free plan that outlives a
// bulk load orders by its driver's size now, not at compile time.
func (p *Plan) estCostLive() float64 {
	if p.costBased || len(p.atoms) == 0 {
		return p.estCost
	}
	return float64(p.atoms[0].rel.Len())
}

// CostBased reports whether the plan's join order was chosen by the
// statistics-driven cost model (false: the greedy fallback, because
// statistics were absent or ForceGreedy was set).
func (p *Plan) CostBased() bool { return p.costBased }

// Explain renders the chosen join order with the planner's estimates —
// one line per atom in execution order, with its access path (index
// probe column or scan) and, for cost-based plans, the estimated
// intermediate-result size after the join step.
func (p *Plan) Explain() string {
	var b strings.Builder
	mode := "greedy (statistics absent)"
	switch {
	case p.costBased:
		mode = "cost-based"
	case p.forced:
		mode = "greedy (forced)"
	}
	fmt.Fprintf(&b, "%s — %s, est cost %.1f rows\n", p.query.String(), mode, p.estCost)
	for i, ap := range p.atoms {
		access := "scan"
		if ap.probeCol >= 0 {
			access = fmt.Sprintf("probe %s", ap.rel.Schema.Attrs[ap.probeCol].Name)
		}
		fmt.Fprintf(&b, "  %d. %s [%d rows] %s", i+1, ap.rel.Schema.Name, ap.rel.Len(), access)
		if i < len(p.estRows) {
			fmt.Fprintf(&b, " → est %.2f rows", p.estRows[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
