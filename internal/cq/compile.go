package cq

import (
	"context"
	"fmt"

	"repro/internal/relation"
)

// This file is the compiler of the execution engine. Compile resolves
// every variable of a query to a fixed integer slot once, fixes a join
// order at compile time — cost-based from relation statistics when they
// are available, the static greedy heuristic otherwise (see planner.go)
// — and precomputes a probe plan per atom. The columnar batch kernel
// (batch.go) is the one executor of the resulting Plan; EvalReference
// (eval.go) is the oracle it is tested against.

// opKind says what an atom column contributes during enumeration.
type opKind uint8

const (
	// opBind writes the row value into a slot bound here for the first time.
	opBind opKind = iota
	// opCheckSlot compares the row value against an already-bound slot.
	opCheckSlot
	// opCheckConst compares the row value against a constant.
	opCheckConst
)

// slotOp is one per-column instruction of an atom's probe plan.
type slotOp struct {
	col  int
	kind opKind
	slot int
	val  relation.Value
}

// atomPlan is the compiled form of one body atom: the relation to probe,
// an optional index column (probeCol >= 0), and the column ops.
type atomPlan struct {
	rel        *relation.Relation
	probeCol   int // column to probe via code index, -1 → full scan
	probeSlot  int // slot holding the probe value when probeIsVar
	probeVal   relation.Value
	probeIsVar bool
	ops        []slotOp
}

// slotSource records where a slot gets its value: the plan-order atom
// whose opBind writes it and the column read. The batch kernel resolves
// it to the binding column's dictionary — the code space every read of
// that slot translates from.
type slotSource struct {
	atom int
	col  int
}

// Plan is a compiled conjunctive query, bound to the database it was
// compiled against. Exec may be called repeatedly; it re-reads the
// relations' current rows each time. The join order is fixed at compile
// time from the statistics current then — callers caching plans across
// data changes should key on Database.StatsVersion so a plan ordered by
// stale cardinalities is recompiled, not reused.
type Plan struct {
	query     Query
	atoms     []atomPlan // in join order
	nslots    int
	headSlots []int
	headAttrs []relation.Attribute

	// slotSrc[s] is slot s's binding (atom, column); boundBefore[d] is
	// how many slots are bound entering atom d (slots are numbered in
	// binding order, so those are exactly slots [0, boundBefore[d])).
	// Both feed the columnar batch kernel (batch.go).
	slotSrc     []slotSource
	boundBefore []int

	costBased bool      // order chosen by the cost model (see planner.go)
	forced    bool      // greedy because ForceGreedy, not because stats were absent
	estRows   []float64 // est intermediate size after each atom, when costBased
	estCost   float64   // est rows examined (greedy fallback: driver atom rows)
}

// Compile validates q against db and builds an execution plan with the
// default options: slot assignment, cost-based join order when every
// body relation carries statistics (greedy order otherwise — see
// CompileOptions), and per-atom probe plans.
func Compile(db Catalog, q Query) (*Plan, error) {
	return CompileOpts(db, q, CompileOptions{})
}

// CompileOpts is Compile with an options block; see CompileOptions.
func CompileOpts(db Catalog, q Query, opts CompileOptions) (*Plan, error) {
	if !q.IsSafe() {
		return nil, fmt.Errorf("cq: unsafe query %s", q)
	}
	rels := make([]*relation.Relation, len(q.Body))
	for i, a := range q.Body {
		r := db.Get(a.Pred)
		if r == nil {
			return nil, fmt.Errorf("cq: unknown relation %q in %s", a.Pred, q)
		}
		if r.Schema.Arity() != len(a.Args) {
			return nil, fmt.Errorf("cq: atom %s has %d args, relation has arity %d",
				a, len(a.Args), r.Schema.Arity())
		}
		rels[i] = r
	}

	// Join order: cost-based when every body relation maintains
	// statistics, the static greedy heuristic otherwise.
	var stats []relation.Stats
	if !opts.ForceGreedy {
		stats = make([]relation.Stats, len(rels))
		for i, r := range rels {
			stats[i] = r.Stats()
			if stats[i].Distinct == nil {
				stats = nil
				break
			}
		}
	}
	p := &Plan{query: q, forced: opts.ForceGreedy}
	var order []int
	if stats != nil {
		order, p.estRows, p.estCost = orderByCost(q, stats)
		p.costBased = true
	} else {
		order = orderGreedy(q)
		// Statistics-free cost proxy: the driver atom's row count.
		if len(order) > 0 {
			p.estCost = float64(rels[order[0]].Len())
		}
	}

	// vars[s] is the variable bound to slot s; queries are small, so
	// linear search beats maps and allocates only this one slice.
	var vars []string
	slotOf := func(name string) int {
		for s, v := range vars {
			if v == name {
				return s
			}
		}
		return -1
	}
	for _, ai := range order {
		atom := q.Body[ai]
		p.boundBefore = append(p.boundBefore, p.nslots)

		ap := atomPlan{rel: rels[ai], probeCol: -1}
		if stats != nil {
			// Cost-based probe choice: the indexable column with the
			// most distinct values hands back the fewest candidates.
			ap.probeCol, ap.probeSlot, ap.probeIsVar = bestProbeCol(atom, stats[ai], slotOf)
			if ap.probeCol >= 0 && !ap.probeIsVar {
				ap.probeVal = atom.Args[ap.probeCol].Const
			}
		} else {
			// Greedy probe choice: first arg that is a constant or an
			// already-bound variable (the reference evaluator's pick).
			for col, t := range atom.Args {
				if !t.IsVar {
					ap.probeCol = col
					ap.probeVal = t.Const
					break
				}
				if s := slotOf(t.Var); s >= 0 {
					ap.probeCol = col
					ap.probeIsVar = true
					ap.probeSlot = s
					break
				}
			}
		}
		for col, t := range atom.Args {
			if !t.IsVar {
				if col == ap.probeCol {
					continue // index lookup already guarantees equality
				}
				ap.ops = append(ap.ops, slotOp{col: col, kind: opCheckConst, val: t.Const})
				continue
			}
			if s := slotOf(t.Var); s >= 0 {
				if col == ap.probeCol && ap.probeIsVar {
					continue
				}
				ap.ops = append(ap.ops, slotOp{col: col, kind: opCheckSlot, slot: s})
				continue
			}
			s := p.nslots
			p.nslots++
			vars = append(vars, t.Var)
			p.slotSrc = append(p.slotSrc, slotSource{atom: len(p.atoms), col: col})
			ap.ops = append(ap.ops, slotOp{col: col, kind: opBind, slot: s})
		}
		p.atoms = append(p.atoms, ap)
	}
	p.boundBefore = append(p.boundBefore, p.nslots)

	p.headSlots = make([]int, len(q.HeadVars))
	for i, v := range q.HeadVars {
		p.headSlots[i] = slotOf(v) // present: q is safe
	}
	p.headAttrs = HeadSchemaFor(db, q).Attrs
	return p, nil
}

// HeadSchema returns the schema of the answer relation the plan
// produces: one attribute per head variable, typed from the body
// relations' schemas.
func (p *Plan) HeadSchema() relation.Schema {
	return relation.Schema{Name: p.query.HeadPred, Attrs: p.headAttrs}
}

// Exec runs the plan and returns the deduplicated head projection. The
// result is an answer relation: it carries no column statistics and
// builds a dictionary encoding only if it is later joined against (see
// relation.NewResult).
func (p *Plan) Exec() (*relation.Relation, error) {
	return MaterializeUnion(context.Background(), []*Plan{p}, ExecOptions{})
}

// ExecUnion executes precompiled plans as a union of conjunctive
// queries, deduplicating through one shared hash set as branches
// execute. The answer schema comes from the first plan; all plans must
// share head arity.
func ExecUnion(plans []*Plan) (*relation.Relation, error) {
	return MaterializeUnion(context.Background(), plans, ExecOptions{})
}
