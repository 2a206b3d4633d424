package repro

import (
	"testing"

	"repro/internal/perfledger"
)

// TestPerfLedgerGate is the machine check behind the committed
// BENCH_N.json trajectory: it loads the latest ledger, re-measures the
// all-local warm E2/16 path live, and fails when it regresses beyond
// noise against that baseline. Allocations are deterministic, so their
// gate is tight; wall-clock varies across CI machines, so its gate is
// generous — it catches a path regression (an accidental cold re-plan,
// a lock convoy), not a slow runner.
func TestPerfLedgerGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a ~1s benchmark")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the measured path far past the non-race baseline")
	}
	path, err := perfledger.Latest(".")
	if err != nil {
		t.Fatalf("resolving the latest committed perf ledger: %v", err)
	}
	t.Logf("gating against %s", path)
	ledger, err := perfledger.Load(path)
	if err != nil {
		t.Fatalf("loading the committed perf ledger: %v", err)
	}
	for _, name := range perfledger.RequiredBenches {
		if _, ok := ledger.Benches[name]; !ok {
			t.Errorf("ledger is missing required bench %q (re-run `revere bench`)", name)
		}
	}
	// The plan-shipping acceptance bound, re-checked on the committed
	// numbers: the cold remote refresh must move at least 10x fewer
	// wire bytes shipped than mirrored.
	ship := ledger.Benches[perfledger.BenchColdShip]
	mirror := ledger.Benches[perfledger.BenchColdMirror]
	if ship.WireBytesPerOp <= 0 || mirror.WireBytesPerOp < 10*ship.WireBytesPerOp {
		t.Errorf("committed ledger: plan shipping moved %.0f wire bytes/op vs mirror's %.0f — want >= 10x reduction",
			ship.WireBytesPerOp, mirror.WireBytesPerOp)
	}
	// The push-replication acceptance bound, re-checked on the committed
	// numbers: a subscribed watch iteration must move O(changed-rows)
	// wire bytes (one pushed record, far under a frame) and answer with
	// zero State probes — the push path replaces the freshness probe.
	push := ledger.Benches[perfledger.BenchPushFanout]
	if push.WireBytesPerOp <= 0 || push.WireBytesPerOp >= 4096 {
		t.Errorf("committed ledger: push fanout moved %.0f wire bytes/op — want O(changed-rows), in (0, 4096)",
			push.WireBytesPerOp)
	}
	if push.StateProbesPerOp != 0 {
		t.Errorf("committed ledger: push fanout spent %.2f State probes/op — want 0 (push-live queries skip the probe)",
			push.StateProbesPerOp)
	}
	// The bound nobody was watching until PR 12: what applying that one
	// pushed row costs the coordinator. BENCH_10 recorded 50 404 allocs
	// and 8.86 MB per iteration — a deep clone of the 50 000-row replica
	// per batch — against 30 wire bytes; an O(change) apply leaves the
	// iteration at the re-query's own cost.
	if push.AllocsPerOp > 2000 || push.BytesPerOp > 1<<20 {
		t.Errorf("committed ledger: push fanout spent %d allocs and %d B per op — want <= 2000 allocs and <= 1 MB (the apply must be O(change))",
			push.AllocsPerOp, push.BytesPerOp)
	}
	// And the warm paths must not have paid for it: no more allocations
	// than the ledger of two PRs ago recorded.
	before, err := perfledger.Load("BENCH_10.json")
	if err != nil {
		t.Fatalf("loading BENCH_10.json: %v", err)
	}
	for _, name := range []string{perfledger.BenchWarm, perfledger.BenchWarmBatch,
		perfledger.BenchSkewed, perfledger.BenchWarmRemote} {
		if now, was := ledger.Benches[name].AllocsPerOp, before.Benches[name].AllocsPerOp; now > was {
			t.Errorf("committed ledger: %s allocates %d/op, BENCH_10 recorded %d/op", name, now, was)
		}
	}
	base, ok := ledger.Benches[perfledger.BenchWarm]
	if !ok || base.NsPerOp <= 0 || base.AllocsPerOp <= 0 {
		t.Fatalf("ledger %s entry unusable: %+v", perfledger.BenchWarm, base)
	}
	live, err := perfledger.WarmE2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm E2/16: live %.0f ns/op %d allocs/op vs ledger %.0f ns/op %d allocs/op",
		live.NsPerOp, live.AllocsPerOp, base.NsPerOp, base.AllocsPerOp)
	if live.Answers != base.Answers {
		t.Errorf("warm E2/16 answers = %d, ledger recorded %d", live.Answers, base.Answers)
	}
	// Allocation count barely varies run to run: +25% (plus a small
	// absolute slack) is a real regression, not noise.
	if maxAllocs := base.AllocsPerOp*5/4 + 8; live.AllocsPerOp > maxAllocs {
		t.Errorf("warm E2/16 allocs regressed: %d/op, gate %d/op (ledger %d/op)",
			live.AllocsPerOp, maxAllocs, base.AllocsPerOp)
	}
	// Wall clock varies with the runner; 4x the recorded baseline is
	// far outside machine noise.
	if maxNs := base.NsPerOp * 4; live.NsPerOp > maxNs {
		t.Errorf("warm E2/16 wall clock regressed: %.0f ns/op, gate %.0f ns/op (ledger %.0f ns/op)",
			live.NsPerOp, maxNs, base.NsPerOp)
	}
}
