package cq

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// This file is the parallel union executor: the branches of a
// reformulated query (one compiled plan per rewriting) run concurrently
// on a bounded worker pool, deduplicating through one shared
// relation.ShardedTupleSet, which copies only the answers it admits,
// so a worker pays per answer, not per binding. Only a streaming
// consumer — a yield, or a limited materialization — has answers fanned
// in to it on the calling goroutine; an unlimited materialization takes
// the set's entries as its rows once the workers are done. Limit stays
// exact — distinct answers claim delivery slots through a shared atomic
// counter, and the Nth claim cancels every in-flight branch — and both
// cancellation and a consumer break drain the pool before the call
// returns, so no goroutine outlives it.

// parallelMinCost is the auto-mode threshold: a union is only worth
// fanning out when the branches' estimated execution costs (rows
// examined, per the cost-based planner; driver-atom rows for plans
// without statistics) together reach it. Below it the per-query worker
// spawn and channel hop cost more than the joins themselves, so auto
// mode keeps the sequential path (the warm small-network serving case).
const parallelMinCost = 512

// effectiveParallelism resolves opts.Parallelism to a worker count for
// this union: explicit N > 1 forces N workers, explicit 1 (or a
// single-branch union) is sequential, and 0 picks GOMAXPROCS when
// worthParallel says the union is heavy enough. Auto mode also stays
// sequential for small limits (existence queries): the sequential path
// typically hits its Nth distinct answer before a worker pool would
// finish spinning up, and keeps the Limit=1 fast path allocation-lean.
// The result is capped at the branch count — intra-branch joins are
// not split.
func effectiveParallelism(plans []*Plan, opts ExecOptions) int {
	par := opts.Parallelism
	switch {
	case par < 0:
		par = 1
	case par == 0:
		par = runtime.GOMAXPROCS(0)
		if par > 1 && opts.Limit > 0 && opts.Limit <= parallelBatch {
			par = 1
		}
		if par > 1 && !worthParallel(plans) {
			par = 1
		}
	}
	if par > len(plans) {
		par = len(plans)
	}
	if par < 1 {
		par = 1
	}
	return par
}

// worthParallel estimates whether a union pays for the fan-in
// machinery: at least two branches, and the branches' estimated costs
// (the planner's rows-examined estimates) total parallelMinCost or
// more. With statistics the estimate accounts for join selectivity —
// a wide union of highly selective probes stays sequential where the
// old driver-atom-rows guess would have paid for a pool it could not
// use.
func worthParallel(plans []*Plan) bool {
	if len(plans) < 2 {
		return false
	}
	cost := 0.0
	for _, p := range plans {
		cost += p.estCostLive()
		if cost >= parallelMinCost {
			return true
		}
	}
	return false
}

// parallelBatch is how many tuples a worker accumulates before one
// fan-in channel send — per-tuple sends would serialize the workers on
// the channel lock for union results numbering in the thousands. A
// batch is also flushed whenever a branch finishes (and when the limit
// fills), so first-answer latency stays bounded by one branch's
// produce rate, not by the batch size.
const parallelBatch = 32

// startWorkers runs the union's branches on par workers and returns a
// wait that blocks until every worker has returned, reporting the first
// branch error. Workers claim branch indexes from a shared atomic
// cursor, run each branch's join against bctx with the executor in
// tuple mode (each binding's answer decodes into a reused scratch tuple
// before the shared sharded set, so dedup spans workers, and the set's
// copy of an admitted answer is what the leaf yields), and stop
// claiming once bctx is done. worker, when not nil, is called once per
// worker for its leaf callback and a flush run after every branch,
// success or failure; without one a worker only adds to seen. A failing
// branch cancels the rest.
func startWorkers(bctx context.Context, cancel context.CancelFunc, plans []*Plan, head relation.Schema,
	par int, seen *relation.ShardedTupleSet, worker func() (yield func(relation.Tuple) bool, flush func())) (wait func() error) {
	var nextBranch atomic.Int64
	var errOnce sync.Once
	var branchErr error
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			var yield func(relation.Tuple) bool
			var flush func()
			if worker != nil {
				yield, flush = worker()
			}
			be := getBatchExec(len(head.Attrs), false)
			defer be.release()
			be.head = head
			for {
				i := int(nextBranch.Add(1)) - 1
				if i >= len(plans) || bctx.Err() != nil {
					return
				}
				err := be.run(bctx, plans[i], seen, yield)
				if flush != nil {
					flush()
				}
				if err != nil {
					errOnce.Do(func() { branchErr = err })
					cancel()
					return
				}
			}
		}()
	}
	return func() error {
		wg.Wait()
		return branchErr
	}
}

// collectParallel executes an unlimited union on par workers that only
// add to the shared sharded set — no channel, no batches, no consumer —
// and returns the set's entries, in one exactly sized slice, as the
// answer rows.
func collectParallel(ctx context.Context, plans []*Plan, head relation.Schema, par int) ([]relation.Tuple, error) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	seen := relation.NewShardedTupleSet(4 * par)
	err := startWorkers(bctx, cancel, plans, head, par, seen, nil)()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return seen.Tuples(), nil
}

// streamUnionParallel executes the union's branches on par workers and
// fans their answers in to yield.
//
// Protocol:
//   - Workers run branches as startWorkers describes. Deduplication
//     happens inside the join (the kernel's leaf adds to the shared
//     sharded set before yielding), so each distinct tuple surfaces in
//     exactly one worker.
//   - With a limit, a surfacing tuple claims a delivery slot from the
//     shared counter; claims beyond the limit are dropped, and the
//     claim that fills the limit cancels all in-flight branches. A
//     claimed tuple is always flushed — workers flush their batch
//     after every branch, success or failure, and the consumer drains
//     the channel until it closes, so sends cannot deadlock and
//     exactly min(Limit, |answers|) tuples are delivered.
//   - yield runs on the calling goroutine only. A false return cancels
//     the branches; the loop then drains remaining in-flight batches.
//   - The results channel closes only after every worker returned, so
//     by the time this function returns no goroutine it started is
//     alive.
func streamUnionParallel(ctx context.Context, plans []*Plan, head relation.Schema, opts ExecOptions, par int, yield func(relation.Tuple) bool) error {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	seen := relation.NewShardedTupleSet(4 * par)
	out := make(chan []relation.Tuple, par)
	limit := int64(opts.Limit)
	var claimed atomic.Int64
	wait := startWorkers(bctx, cancel, plans, head, par, seen, func() (func(relation.Tuple) bool, func()) {
		buf := make([]relation.Tuple, 0, parallelBatch)
		// Flushing also after a failed branch matters: slot-claiming
		// tuples buffered by a branch that was then cancelled (limit
		// filled elsewhere) must still reach the consumer.
		flush := func() {
			if len(buf) > 0 {
				out <- buf
				buf = make([]relation.Tuple, 0, parallelBatch)
			}
		}
		return func(t relation.Tuple) bool {
			if limit > 0 {
				c := claimed.Add(1)
				if c > limit {
					return false
				}
				buf = append(buf, t)
				if c == limit {
					flush()
					cancel()
					return false
				}
			} else {
				buf = append(buf, t)
			}
			if len(buf) == parallelBatch {
				flush()
			}
			return true
		}, flush
	})
	var branchErr error
	go func() {
		branchErr = wait()
		close(out)
	}()

	stopped := false
	func() {
		// A panicking yield would abandon the drain loop with workers
		// parked on claimed-slot sends; cancel and drain before letting
		// the panic continue so no goroutine outlives the call even then.
		defer func() {
			if r := recover(); r != nil {
				cancel()
				for range out {
				}
				panic(r)
			}
		}()
		for batch := range out {
			for _, t := range batch {
				if stopped {
					continue // drain so claimed-slot sends never block forever
				}
				if !yield(t) {
					stopped = true
					cancel()
				}
			}
		}
	}()
	switch {
	case stopped:
		return nil // consumer break, same contract as sequential
	case limit > 0 && claimed.Load() >= limit:
		return nil // limit reached
	case ctx.Err() != nil:
		return ctx.Err()
	}
	// Otherwise branchErr is a branch's own failure (a mistyped branch's
	// first answer), or nil.
	return branchErr
}
