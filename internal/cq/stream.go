package cq

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"repro/internal/relation"
)

// This file is the streaming face of the compiled engine. The batch
// kernel (batch.go) produces answers as its leaf batches fill;
// StreamOpts and StreamUnionOpts route them through a caller-supplied
// yield, with cooperative cancellation (polled once per batch of rows
// examined and every ctxCheckInterval answers) and an optional
// distinct-answer limit that aborts the join as soon as it is reached. MaterializeUnion, the
// one materializing path behind Exec/ExecUnion/Eval and the PDMS
// cursor, does not stream to itself: it runs the same kernel with no
// yield and builds the answer relation once, at its final size.

// ExecOptions tunes one streaming execution.
type ExecOptions struct {
	// Limit stops execution after this many distinct answers have been
	// yielded (0 = unlimited). Because deduplication happens before the
	// limit check, exactly min(Limit, |answers|) tuples are delivered.
	Limit int
}

// StreamOpts executes the plan, calling yield for every distinct answer
// as the join produces it, up to opts.Limit. Enumeration stops when
// yield returns false (not an error) or when ctx is cancelled (returns
// ctx.Err()). The yielded tuple is owned by the consumer; the engine
// never mutates it.
func (p *Plan) StreamOpts(ctx context.Context, opts ExecOptions, yield func(relation.Tuple) bool) error {
	return StreamUnionOpts(ctx, []*Plan{p}, opts, yield)
}

// StreamUnionOpts executes precompiled plans as a union of conjunctive
// queries, streaming distinct tuples through yield as branches execute.
// One hash set is shared across all branches, so a tuple produced by
// several rewritings is yielded once. All plans must share head arity.
// The limit is pushed down into the shared dedup set: the join tree
// aborts — across all remaining branches — the moment the Nth distinct
// answer has been yielded. Limited unions run their branches cheapest-first (by the
// planner's cost estimates), so the limit tends to fill before the
// expensive branches start. The branches run one after another on the
// calling goroutine and dedup over code vectors in one output encoding
// shared by every branch.
func StreamUnionOpts(ctx context.Context, plans []*Plan, opts ExecOptions, yield func(relation.Tuple) bool) error {
	head, err := unionHead(plans)
	if err != nil {
		return err
	}
	if opts.Limit > 0 && len(plans) > 1 {
		plans = plansCheapestFirst(plans)
	}
	be := getBatchExec(len(head.Attrs))
	defer be.release()
	return be.runUnion(ctx, plans, head, opts.Limit, yield)
}

// unionHead checks that plans form a union — at least one branch, all
// of one head arity — and returns its answer schema, the first plan's.
// A branch whose head kinds differ from it fails on its first answer
// (batchExec.checkKinds).
func unionHead(plans []*Plan) (relation.Schema, error) {
	if len(plans) == 0 {
		return relation.Schema{}, fmt.Errorf("cq: empty union")
	}
	arity := len(plans[0].headSlots)
	for _, p := range plans {
		if len(p.headSlots) != arity {
			return relation.Schema{}, fmt.Errorf("union: arity mismatch %d vs %d", arity, len(p.headSlots))
		}
	}
	return plans[0].HeadSchema(), nil
}

// plansCheapestFirst returns the plans ordered by ascending estimated
// cost. The input — typically a slice cached and shared across
// concurrent requests — is never mutated; the sort is stable so
// equal-cost branches keep their reformulation order and plans stay
// deterministic.
func plansCheapestFirst(plans []*Plan) []*Plan {
	type costed struct {
		p    *Plan
		cost float64
	}
	cs := make([]costed, len(plans))
	for i, p := range plans {
		cs[i] = costed{p: p, cost: p.estCostLive()}
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].cost < cs[j].cost })
	out := make([]*Plan, len(cs))
	for i, c := range cs {
		out[i] = c.p
	}
	return out
}

// UnionTuples is the iterator form of StreamUnionOpts: each pair is one
// distinct answer with a nil error, except a final (nil, err) pair if
// execution failed (cancellation). Breaking out of the range stops the
// join tree immediately.
func UnionTuples(ctx context.Context, plans []*Plan, opts ExecOptions) iter.Seq2[relation.Tuple, error] {
	return func(yield func(relation.Tuple, error) bool) {
		broke := false
		err := StreamUnionOpts(ctx, plans, opts, func(t relation.Tuple) bool {
			if !yield(t, nil) {
				broke = true
				return false
			}
			return true
		})
		if err != nil && !broke {
			yield(nil, err)
		}
	}
}

// MaterializeUnion executes the union as StreamUnionOpts does — same
// answers in the same order — into a relation whose schema comes from
// the first plan: the materializing path ExecUnion and the PDMS cursor
// share. Nothing is streamed: the union keeps its answers as
// deduplicated code vectors and decodes them once at the end into
// exactly sized rows, which the result adopts without copying.
func MaterializeUnion(ctx context.Context, plans []*Plan, opts ExecOptions) (*relation.Relation, error) {
	head, err := unionHead(plans)
	if err != nil {
		return nil, err
	}
	if opts.Limit > 0 && len(plans) > 1 {
		plans = plansCheapestFirst(plans)
	}
	be := getBatchExec(len(head.Attrs))
	defer be.release()
	if err := be.runUnion(ctx, plans, head, opts.Limit, nil); err != nil {
		return nil, err
	}
	return relation.AdoptResult(head, be.answers()), nil
}

// HeadSchemaFor returns the schema a query's answers carry when
// evaluated against db: one attribute per head variable, typed from the
// schema of the first body atom binding it (TString when no body atom
// resolves). Both the compiled plan and the zero-rewriting answer path
// derive their schema here, so empty and non-empty results agree.
func HeadSchemaFor(db Catalog, q Query) relation.Schema {
	attrs := make([]relation.Attribute, len(q.HeadVars))
	for i, v := range q.HeadVars {
		attrs[i] = relation.Attribute{Name: v, Type: relation.TString}
		if typ, ok := headTypeFromSchema(db, q, v); ok {
			attrs[i].Type = typ
		}
	}
	return relation.Schema{Name: q.HeadPred, Attrs: attrs}
}
