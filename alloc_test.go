package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cq"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestWarmPathAllocCeilings holds what the warm serving paths cost in
// the one currency that does not depend on the machine: heap
// allocations, answer counts and transport calls per operation, measured
// live over the fixtures bench_test.go's benchmarks run. A path that
// starts re-planning, re-fetching or copying per query fails here;
// wall-clock regressions are bench/'s job (BENCHMARK.json, op_p50_us).
//
// Each ceiling is the count this test measures today plus 2: the counts
// repeat exactly run to run and across GOMAXPROCS, so the slack only
// absorbs a sync.Pool emptied by a garbage collection mid-measurement.
// A change that moves a count on purpose edits the number here.
func TestWarmPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	ctx := context.Background()
	g := e2Chain(t, 16, 5)
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 17}}
	lb := pdms.NewLoopback(e2Served(g)...)
	remote := e2RemoteCoordinator(t, g, lb)
	tcp := e2RemoteCoordinator(t, g, e2TCPTransport(t, g))
	pushed := e2RemoteCoordinator(t, g, lb)
	for i := 8; i < 16; i++ {
		peer := workload.PeerName(i)
		if err := pushed.StartPush(ctx, peer); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pushed.StopPush(peer) })
		if err := pushed.WaitPushLive(ctx, peer); err != nil {
			t.Fatal(err)
		}
	}
	plans := skewedJoinPlans(t)
	materialize := func(n *pdms.Network) func() (int, error) {
		return func() (int, error) {
			cur, err := n.Query(ctx, req)
			if err != nil {
				return 0, err
			}
			rel, err := cur.Materialize()
			if err != nil {
				return 0, err
			}
			return rel.Len(), nil
		}
	}
	for _, tc := range []struct {
		name      string
		op        func() (answers int, err error)
		answers   int
		maxAllocs float64
		states    uint64 // State probes per op over lb
	}{
		{name: "E2/16 Answer", answers: 80, maxAllocs: 19 + 2,
			op: func() (int, error) {
				res, err := g.Net.Answer(req.Peer, req.Query, req.Reform)
				if err != nil {
					return 0, err
				}
				return res.Answers.Len(), nil
			}},
		{name: "E2/16 Query+Materialize", answers: 80, maxAllocs: 17 + 2,
			op: materialize(g.Net)},
		// One freshness probe per remote peer and nothing else on the
		// wire: a warm query over current mirrors moves no tuples.
		{name: "E2/16 upper half behind Loopback", answers: 80, maxAllocs: 107 + 2, states: 8,
			op: materialize(remote)},
		// The same eight probes over real sockets: the TCP client's warm
		// path, which is what bench/'s warm-chain heap_bytes_per_op sees.
		// The count is process-wide, so it includes the in-process
		// server's side of each exchange.
		{name: "E2/16 upper half behind TCP", answers: 80, maxAllocs: 201 + 2,
			op: materialize(tcp)},
		// Live push subscriptions keep the replicas current, so the warm
		// query sends nothing at all: no probe, no goroutine, no scan —
		// the query path bench/'s write-push runs.
		{name: "E2/16 upper half behind Loopback, push-live", answers: 80, maxAllocs: 19 + 2,
			op: materialize(pushed)},
		{name: "skewed join, precompiled", answers: 664, maxAllocs: 13 + 2,
			op: func() (int, error) {
				res, err := cq.MaterializeUnion(ctx, plans, cq.ExecOptions{})
				if err != nil {
					return 0, err
				}
				return res.Len(), nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := uint64(0)
			run := func() {
				ops++
				answers, err := tc.op()
				if err != nil {
					t.Fatal(err)
				}
				if answers != tc.answers {
					t.Fatalf("answers = %d, want %d", answers, tc.answers)
				}
			}
			run() // cold: reformulate, compile, fill the mirrors
			ops = 0
			statesBase, scansBase := lb.States(), lb.Scans()
			allocs := testing.AllocsPerRun(100, run)
			t.Logf("%.0f allocs/op (ceiling %.0f)", allocs, tc.maxAllocs)
			if allocs > tc.maxAllocs {
				t.Errorf("allocations regressed: %.0f/op, ceiling %.0f", allocs, tc.maxAllocs)
			}
			if got := lb.States() - statesBase; got != tc.states*ops {
				t.Errorf("%d State probes over %d warm ops, want %d per op", got, ops, tc.states)
			}
			if got := lb.Scans() - scansBase; got != 0 {
				t.Errorf("%d Scans over %d warm ops, want 0", got, ops)
			}
		})
	}
}

// TestBulkLoadAllocs holds the bulk-load claim in bytes: building the
// eight served relations of the 200-rows-per-peer chain — the replicas
// a cold coordinator scans (arity 7, five columns 50–188 values wide) —
// through one InsertBatch each must allocate at most 0.6× what an Insert
// per row allocates for the same rows. Both are measured here, over the
// same tuples, so the ratio does not depend on the machine.
func TestBulkLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	g := e2Chain(t, 16, 200)
	var rels []*relation.Relation
	for _, p := range e2Served(g) {
		rels = append(rels, p.Store.Relations()...)
	}
	rows := 0
	for _, r := range rels {
		rows += r.Len()
	}
	measure := func(build func(r *relation.Relation) *relation.Relation) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		const rounds = 20
		for i := 0; i < rounds; i++ {
			for _, r := range rels {
				if got := build(r); got.Len() != r.Len() {
					t.Fatalf("%s: built %d rows, want %d", r.Schema.Name, got.Len(), r.Len())
				}
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*rows)
	}
	loop := measure(func(r *relation.Relation) *relation.Relation {
		out := relation.New(r.Schema)
		for _, t := range r.Rows() {
			out.Insert(t)
		}
		return out
	})
	bulk := measure(func(r *relation.Relation) *relation.Relation {
		out := relation.New(r.Schema)
		out.InsertBatch(r.Rows())
		return out
	})
	t.Logf("%d relations, %d rows: Insert loop %.0f B/row, InsertBatch %.0f B/row (%.2f×)",
		len(rels), rows, loop, bulk, bulk/loop)
	if bulk > 0.6*loop {
		t.Errorf("InsertBatch allocates %.0f B/row, over 0.6× the Insert loop's %.0f", bulk, loop)
	}
}
