package repro

import (
	"context"
	"os"
	"path/filepath"
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
// repeat run to run, so the slack absorbs a sync.Pool emptied by a
// garbage collection mid-measurement, and the one allocation the remote
// rows' probe workers sometimes add at 4 CPUs (CI runs -cpu 1,2,4).
// A change that moves a count on purpose edits the number here. A
// materialized answer is two allocations whatever its size — one slice
// of row headers, one block of values — so the precompiled skewed
// join's 664 answers cost 3, and so do the 679 of warm-join's
// two-branch union, which runs on the calling goroutine like every
// union.
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
	plans, union := skewedJoinPlans(t), skewedUnionPlans(t)
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
		// procs measures at the test's GOMAXPROCS instead of
		// AllocsPerRun's 1, for a path whose work must not depend on
		// the CPU count.
		procs bool
	}{
		{name: "E2/16 Answer", answers: 80, maxAllocs: 12 + 2,
			op: func() (int, error) {
				res, err := g.Net.Answer(req.Peer, req.Query, req.Reform)
				if err != nil {
					return 0, err
				}
				return res.Answers.Len(), nil
			}},
		{name: "E2/16 Query+Materialize", answers: 80, maxAllocs: 10 + 2,
			op: materialize(g.Net)},
		// Pricing and copy reads take Query's cached reformulation; an
		// uncached one costs hundreds of allocations. EstimateCost's
		// "answers" is its estimated cost in tuple reads.
		{name: "E2/16 EstimateCost", answers: 405, maxAllocs: 7 + 2,
			op: func() (int, error) {
				cost, err := g.Net.EstimateCost(req.Peer, req.Query, pdms.CostModel{})
				return int(cost), err
			}},
		{name: "E2/16 AnswerUsingCopies, no copy placed", answers: 80, maxAllocs: 13 + 2,
			op: func() (int, error) {
				res, err := g.Net.AnswerUsingCopies(req.Peer, req.Query, req.Reform)
				if err != nil {
					return 0, err
				}
				return res.Answers.Len(), nil
			}},
		// One freshness probe per remote peer and nothing else on the
		// wire: a warm query over current mirrors moves no tuples.
		// Both remote rows measure at the test's GOMAXPROCS: the probes
		// fan out on a worker pool, and a pool wider than the TCP
		// client's idle connections dials extra sockets per query.
		{name: "E2/16 upper half behind Loopback", answers: 80, maxAllocs: 102 + 2, states: 8, procs: true,
			op: materialize(remote)},
		// The same eight probes over real sockets: the TCP client's warm
		// path, which is what bench/'s warm-chain heap_bytes_per_op sees.
		// The count is process-wide, so it includes the in-process
		// server's side of each exchange. Both sides read each frame —
		// header and payload — into their connection's kept buffer.
		{name: "E2/16 upper half behind TCP", answers: 80, maxAllocs: 164 + 2, procs: true,
			op: materialize(tcp)},
		// Live push subscriptions keep the replicas current, so the warm
		// query sends nothing at all: no probe, no goroutine, no scan —
		// the query path bench/'s write-push runs.
		{name: "E2/16 upper half behind Loopback, push-live", answers: 80, maxAllocs: 12 + 2,
			op: materialize(pushed)},
		{name: "skewed join, precompiled", answers: 664, maxAllocs: 3 + 2,
			op: func() (int, error) {
				res, err := cq.MaterializeUnion(ctx, plans, cq.ExecOptions{})
				if err != nil {
					return 0, err
				}
				return res.Len(), nil
			}},
		{name: "skewed union, precompiled", answers: 679, maxAllocs: 3 + 2, procs: true,
			op: func() (int, error) {
				res, err := cq.MaterializeUnion(ctx, union, cq.ExecOptions{})
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
			measure := testing.AllocsPerRun
			if tc.procs {
				measure = allocsPerRun
			}
			allocs := measure(100, run)
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
// same tuples, so the ratio does not depend on the machine. The bulk
// load must also stay under an absolute ceiling, the measured 325 B/row
// plus 2 %: its rows, code vectors, decode tables, sketches and 4-byte
// encode-table slots, with no per-value map entry.
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
	const ceiling = 332
	if bulk > ceiling {
		t.Errorf("InsertBatch allocates %.0f B/row, over the %d B/row ceiling", bulk, ceiling)
	}
}

// TestRecoveryAllocs holds what a crashed durable node pays to come
// back, in the rejoin shape BenchmarkOpenDurablePeer reopens (a
// 50 000-row snapshot plus a 4 000-record log): heap allocations and
// bytes per recovery, and the snapshot's bytes per row. Each ceiling is
// the measured value plus 2 %. The snapshot keeps each relation as its
// dictionary encoding, so a reload decodes and hashes each distinct
// value once and reads one code per row and column, builds no row image,
// and replays the log as one bulk append of records decoded into one
// value block; the allocations left are mostly the log's string values,
// two per record. With a row image built at reload and a slice, tuple and
// name per log record it cost 20 252 allocations and 8.61 MB; with tuple
// batches and a replay per record, 120 519 allocations and 17.2 MB, from
// a snapshot of 10.2 B/row.
func TestRecoveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	dir, schema := durablePeerDir(t)
	info, err := os.Stat(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(info.Size()) / durablePeerRows
	reopenDurablePeer(t, dir, schema) // warm-up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		reopenDurablePeer(t, dir, schema)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / rounds
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("recovery: %.0f allocs, %.0f B; snapshot %d B, %.3f B/row", allocs, bytes, info.Size(), perRow)
	for _, c := range []struct {
		what         string
		got, ceiling float64
	}{
		{"allocations per recovery", allocs, 8234 * 1.02},
		{"bytes per recovery", bytes, 1886700 * 1.02},
		{"snapshot bytes per row", perRow, 2.017 * 1.02},
	} {
		if c.got > c.ceiling {
			t.Errorf("%s: %.2f, ceiling %.2f", c.what, c.got, c.ceiling)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the
// average heap allocation count of f over runs calls, after one
// warm-up call, at the GOMAXPROCS the test runs with, so a path that
// allocates more only when it sees more than one CPU shows here.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
