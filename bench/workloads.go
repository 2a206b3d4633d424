package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// workloadDef names one workload. The names and the why sentences are
// the ones in BENCHMARK.json; the smoke test keeps the two in step.
type workloadDef struct {
	name    string
	why     string
	op      string // what one operation is, and so what op_p50_us times
	clients int
	run     func(e *env) (*runResult, error)
}

var workloads = []workloadDef{
	{"warm-chain",
		"steady state of the 16-peer chain: 8 State round trips plus cache hits per query, so transport and pdms bookkeeping do the work and cq almost none",
		"Query+Materialize of TitleQuery(i), i rotating over the 8 local peers", 2,
		func(e *env) (*runResult, error) { return e.runChain(e.sz.chainRows, false) }},
	{"warm-join",
		"one State probe then a batch-kernel join over a current 50000-row replica, so cq and relation indexes do the work and transport none",
		"Query+Materialize of q(P,L) :- fact(K,P), dim(K,L)", 2,
		func(e *env) (*runResult, error) { return e.runJoin() }},
	{"cold-sync",
		"a coordinator (re)joining: caches dropped before each query, so reformulation, plan compile, 8 full Scans and wire decode dominate (bulk, where warm-chain probes)",
		"InvalidateCaches (untimed) then Query+Materialize over the chain at 200 rows/peer", 1,
		func(e *env) (*runResult, error) { return e.runChain(e.sz.coldRows, true) }},
	{"write-push",
		"writes beside reads on a durable node with a live push subscription: each one-row write is WAL-appended, pushed, applied to the 50000-row replica and read back while a second client keeps joining",
		"client A: insert at the node -> WaitPushApplied -> Query+Materialize contains the row; client B queries meanwhile", 2,
		func(e *env) (*runResult, error) { return e.runWritePush() }},
	{"rejoin",
		"a crashed durable node coming back: SIGKILL, restart on the same directory and port, replay of a fixed 4000-record log, redial and first correct answer at the coordinator",
		"SIGKILL node -> restart -> first correct Query+Materialize", 1,
		func(e *env) (*runResult, error) { return e.runRejoin() }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	attempted, failed int
	firstErr          error
	samples           int // latencies behind op_p50_us
	setups            int
	endToEnd          map[string]metric
	perLayer          map[string]metric // only in a traced run
	extra             map[string]any    // printed, never gated
	layers            []layerRow
}

// runPhases runs the workload's timed phase as the run's mode demands.
// Untraced: once, for e.seconds. Traced: e.seconds is split into a
// reference phase (a third) with the decorator installed but switched
// off, then the traced phase (two thirds) with spans on; the two medians
// give the tracing overhead, and the per-layer numbers come from the
// second.
func (e *env) runPhases(t *topo, phase func(d time.Duration) (*measured, error)) (ref, main *measured, err error) {
	d := e.seconds
	if e.trace {
		if ref, err = phase(d / 3); err != nil {
			return nil, nil, err
		}
		t.tr.on.Store(true)
		d -= d / 3
	}
	main, err = phase(d)
	return ref, main, err
}

// durable carries what only the durable workloads measure.
type durable struct {
	appendNS     []int64 // node-reported Peer.Insert time per write
	recoverNS    []int64 // node-reported OpenDurablePeer time per restart
	replayed     int     // records replayed on the last restart
	walBytes     int64
	walRecords   int
	checkpointNS int64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// finish turns the phases into the run's result.
func (e *env) finish(t *topo, setups []time.Duration, ref, m *measured, dur *durable) (*runResult, error) {
	attempted, failed := m.total()
	r := &runResult{samples: len(m.primary), setups: len(setups), extra: map[string]any{}}
	for _, ph := range []*measured{ref, m} {
		if ph == nil {
			continue
		}
		a, f := ph.total()
		r.attempted, r.failed = r.attempted+a, r.failed+f
		for _, c := range ph.clients {
			if c.firstErr != nil && r.firstErr == nil {
				r.firstErr = c.firstErr
			}
		}
	}
	if len(m.primary) == 0 {
		return r, fmt.Errorf("no correct operation completed: %v", r.firstErr)
	}
	lat := sortDurations(m.primary)
	ops := float64(len(lat))
	p50 := us(percentile(lat, 50))
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.Seconds())
	}
	r.endToEnd = map[string]metric{
		"op_p50_us":         {p50, "us"},
		"ops_per_s":         {float64(attempted-failed) / m.elapsed.Seconds(), "1/s"},
		"heap_bytes_per_op": {float64(m.heap) / ops, "B"},
		"wire_bytes_per_op": {float64(m.wire) / ops, "B"},
		"setup_s":           {median(setupS), "s"},
	}
	// The highest percentile with at least ten samples beyond it.
	switch {
	case len(lat) >= 1000:
		r.extra["op_p99_us"] = map[string]any{"value": us(percentile(lat, 99)), "unit": "us", "samples": len(lat)}
	case len(lat) >= 100:
		r.extra["op_p90_us"] = map[string]any{"value": us(percentile(lat, 90)), "unit": "us", "samples": len(lat)}
	}
	r.extra["setup_s_each"] = setupS
	r.extra["elapsed_s"] = m.elapsed.Seconds()
	// Exact counts, the same traced or not: which refresh path the
	// coordinator took, per operation.
	r.extra["sync_paths_per_op"] = map[string]float64{"scan": float64(m.scans) / ops, "delta": float64(m.deltas) / ops,
		"ship": float64(m.ships) / ops, "push": float64(m.pushes) / ops}
	if !e.trace {
		return r, nil
	}

	var retries, rowsOut, fallback int64
	for _, c := range m.clients {
		retries, rowsOut, fallback = retries+c.retries, rowsOut+c.rowsOut, fallback+c.fallback
	}
	answers := float64(attempted - failed)
	rows, traced := t.tr.layerTable()
	r.layers = rows
	self, calls, share := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, row := range rows {
		self[row.Name], calls[row.Name], share[row.Name] = row.WallUSPerOp, row.CallsPerOp, row.SharePct
	}
	tops := float64(max(traced, 1))
	nsPerRow, bytesPerRow, err := codecCost(t.served)
	if err != nil {
		return r, err
	}
	meanMS := func(ns []int64) float64 {
		if len(ns) == 0 {
			return 0
		}
		var sum int64
		for _, v := range ns {
			sum += v
		}
		return float64(sum) / float64(len(ns)) / 1e6
	}
	refP50 := us(percentile(sortDurations(ref.primary), 50))
	overhead := 0.0
	if refP50 > 0 {
		overhead = 100 * (p50 - refP50) / refP50
	}
	walBytesPerRecord := 0.0
	if dur.walRecords > 0 {
		walBytesPerRecord = float64(dur.walBytes) / float64(dur.walRecords)
	}
	r.perLayer = map[string]metric{
		"transport.state_us":           {self["transport.state"], "us"},
		"transport.state_calls_per_op": {calls["transport.state"], "count"},
		"transport.scan_us":            {self["transport.scan"], "us"},
		"transport.scan_rows_per_op":   {float64(t.tr.scanRows.Load()) / tops, "count"},
		"transport.delta_us":           {self["transport.delta"], "us"},
		"transport.execplan_us":        {self["transport.execplan"], "us"},
		"transport.retries_per_op":     {float64(retries) / answers, "count"},
		"pdms.prepare_self_us":         {self["pdms.query"], "us"},
		"pdms.sync_scan_per_op":        {float64(m.scans) / ops, "count"},
		"pdms.sync_delta_per_op":       {float64(m.deltas) / ops, "count"},
		"pdms.sync_ship_per_op":        {float64(m.ships) / ops, "count"},
		"pdms.sync_push_per_op":        {float64(m.pushes) / ops, "count"},
		"pdms.push_lag_us":             {self["pdms.push_wait"], "us"},
		"cq.exec_us":                   {self["cq.exec"], "us"},
		"cq.rows_out_per_op":           {float64(rowsOut) / answers, "count"},
		"cq.fallback_branches_per_op":  {float64(fallback) / answers, "count"},
		"relation.codec_ns_per_row":    {nsPerRow, "ns"},
		"relation.wire_bytes_per_row":  {bytesPerRow, "B"},
		"store.append_us":              {meanMS(dur.appendNS) * 1e3, "us"},
		"store.wal_bytes_per_record":   {walBytesPerRecord, "B"},
		"store.recover_ms":             {meanMS(dur.recoverNS), "ms"},
		"store.replayed_records":       {float64(dur.replayed), "count"},
		"store.checkpoint_ms":          {float64(dur.checkpointNS) / 1e6, "ms"},
		"unattributed_pct":             {share["unattributed"], "%"},
		"trace_overhead_pct":           {overhead, "%"},
	}
	r.extra["traced_ops"] = traced
	r.extra["untraced_ref_op_p50_us"] = refP50
	if e.outDir != "" {
		var nodeSpans []string
		if dur.walRecords > 0 {
			if nodeSpans, err = t.node.dumpSpans(); err != nil {
				return r, err
			}
		}
		path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.def.name, e.seed))
		if err := t.tr.writeSpans(path, nodeSpans); err != nil {
			return r, err
		}
		r.extra["spans_file"] = path
	}
	return r, nil
}

// readPhase is the timed phase of the read-only workloads: every client
// loops over queryOp, client c asking pick(c), pick(c+1), ...; cold drops
// every cache before each query.
func (t *topo) readPhase(cold bool, pick func(i int) (pdms.Request, *oracle)) func(time.Duration) (*measured, error) {
	return func(d time.Duration) (*measured, error) {
		return t.measure(d, func(c int, deadline time.Time, st *opStats) {
			for i := c; time.Now().Before(deadline); i++ {
				if cold {
					t.net.InvalidateCaches()
				}
				req, want := pick(i)
				t.queryOp(req, want, st)
			}
		}), nil
	}
}

// runChain is warm-chain (cold=false: clients rotate the eight title
// queries over a current mirror) and cold-sync (cold=true: one client
// drops every cache before each query).
func (e *env) runChain(rows int, cold bool) (*runResult, error) {
	f, err := e.newChainFixture(rows)
	if err != nil {
		return nil, err
	}
	t, setups, err := e.setup(func() (*topo, error) { return f.build(e) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	ref, main, err := e.runPhases(t, t.readPhase(cold, func(i int) (pdms.Request, *oracle) {
		return f.reqs[i%len(f.reqs)], f.want[i%len(f.reqs)]
	}))
	if err != nil {
		return nil, err
	}
	return e.finish(t, setups, ref, main, &durable{})
}

// runJoin is warm-join.
func (e *env) runJoin() (*runResult, error) {
	f, db, err := e.newJoinFixture()
	if err != nil {
		return nil, err
	}
	t, setups, err := e.setup(func() (*topo, error) { return f.build(e, db, false, 0, false) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	ref, main, err := e.runPhases(t, t.readPhase(false, func(int) (pdms.Request, *oracle) { return f.req, f.base }))
	if err != nil {
		return nil, err
	}
	return e.finish(t, setups, ref, main, &durable{})
}

// pushWaitTimeout bounds one WaitPushApplied; a write that is not
// visible by then is a failed operation.
const pushWaitTimeout = 30 * time.Second

// runWritePush is write-push: client 0 writes and reads each write
// back, client 1 keeps running the join.
func (e *env) runWritePush() (*runResult, error) {
	f, db, err := e.newJoinFixture()
	if err != nil {
		return nil, err
	}
	t, setups, err := e.setup(func() (*topo, error) { return f.build(e, db, true, 0, true) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	dur := &durable{}
	// issued counts writes sent to the node, visible those the writer has
	// read back; a reader's answer must hold between visible-before and
	// issued-after of them, in order.
	var issued, visible atomic.Int64
	next := 0
	writer := func(deadline time.Time, st *opStats) {
		for time.Now().Before(deadline) {
			k := next
			next++
			ctx, root := t.tr.start(context.Background(), spOp)
			t0 := time.Now()
			ipc := t.tr.leaf(ctx, spNodeInsert)
			issued.Store(int64(k + 1))
			reply, err := t.node.callInts(fmt.Sprintf("insert %d 1", k), 2)
			if err == nil {
				ipc.child(spAppend, reply[1])
			}
			ipc.end()
			var rel *relation.Relation
			if err == nil {
				wctx, wait := t.tr.start(ctx, spPushWait)
				wctx, cancel := context.WithTimeout(wctx, pushWaitTimeout)
				err = t.net.WaitPushApplied(wctx, joinSrcPeer, joinRel, uint64(reply[0]))
				cancel()
				wait.end()
			}
			if err == nil {
				rel, err = t.queryIn(ctx, f.req, st)
			}
			d := time.Since(t0)
			root.end()
			st.attempted++
			switch {
			case err != nil:
				st.fail(fmt.Errorf("write %d: %w", k, err))
				if reply == nil {
					return // the node is gone; nothing further can succeed
				}
			case !rel.Contains(writeAnswer(k)) || !f.withWrites(k+1).matches(rel):
				st.fail(fmt.Errorf("write %d not in the answer, or answer wrong: %d rows, want %d", k, rel.Len(), f.base.n+k+1))
			default:
				st.lat = append(st.lat, d)
				dur.appendNS = append(dur.appendNS, reply[1])
			}
			visible.Store(int64(k + 1))
		}
	}
	reader := func(stop *atomic.Bool, st *opStats) {
		for !stop.Load() {
			lo := int(visible.Load())
			t0 := time.Now()
			rel, err := t.queryIn(context.Background(), f.req, st)
			d := time.Since(t0)
			hi := int(issued.Load())
			st.attempted++
			if err != nil {
				st.fail(err)
				continue
			}
			k := rel.Len() - f.base.n
			if k < lo || k > hi || !f.withWrites(k).matches(rel) {
				st.fail(fmt.Errorf("reader answer: %d rows = base+%d, want base+[%d,%d] writes in order", rel.Len(), k, lo, hi))
				continue
			}
			st.lat = append(st.lat, d)
		}
	}
	phase := func(d time.Duration) (*measured, error) {
		dur.appendNS = dur.appendNS[:0]
		var stop atomic.Bool
		m := t.measure(d, func(c int, deadline time.Time, st *opStats) {
			if c == 0 {
				writer(deadline, st)
				stop.Store(true)
			} else {
				reader(&stop, st)
			}
		})
		m.primary = m.clients[0].lat // the writer's write-to-visible times
		return m, nil
	}
	ref, main, err := e.runPhases(t, phase)
	if err != nil {
		return nil, err
	}
	if err := dur.closeOut(t.node, next); err != nil {
		return nil, err
	}
	r, err := e.finish(t, setups, ref, main, dur)
	if r != nil {
		reads := sortDurations(main.clients[1].lat)
		r.extra["reader_p50_us"] = us(percentile(reads, 50))
		r.extra["reader_samples"] = len(reads)
	}
	return r, err
}

// closeOut reads the log size, then times one checkpoint of it.
func (d *durable) closeOut(n *node, records int) error {
	size, err := n.callInts("walsize", 1)
	if err != nil {
		return err
	}
	cp, err := n.callInts("checkpoint", 1)
	if err != nil {
		return err
	}
	d.walBytes, d.walRecords, d.checkpointNS = size[0], records, cp[0]
	return nil
}

// rejoinTimeout bounds one restart's wait for a correct answer.
const rejoinTimeout = 30 * time.Second

// runRejoin is rejoin: the node's log holds exactly e.sz.walRecords
// writes on every cycle, because recovery replays the log without
// checkpointing it.
func (e *env) runRejoin() (*runResult, error) {
	f, db, err := e.newJoinFixture()
	if err != nil {
		return nil, err
	}
	t, setups, err := e.setup(func() (*topo, error) { return f.build(e, db, true, e.sz.walRecords, false) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	dur := &durable{}
	want := f.withWrites(e.sz.walRecords)
	cycle := func(st *opStats) error {
		ctx, root := t.tr.start(context.Background(), spOp)
		t0 := time.Now()
		ks := t.tr.leaf(ctx, spKill)
		old := t.node
		old.kill(e.procs)
		ks.end()
		rs := t.tr.leaf(ctx, spRestart)
		n, err := e.procs.startNode(old.addr, old.args...)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		t.node = n
		rs.child(spRecover, n.recoverNS)
		rs.end()
		var rel *relation.Relation
		for {
			if rel, err = t.queryIn(ctx, f.req, st); err == nil || time.Since(t0) > rejoinTimeout {
				break
			}
			time.Sleep(time.Millisecond)
		}
		d := time.Since(t0)
		root.end()
		st.attempted++
		switch {
		case err != nil:
			st.fail(err)
		case !want.matches(rel):
			st.fail(fmt.Errorf("answer after restart: %d rows, want %d", rel.Len(), want.n))
		case n.replayed != e.sz.walRecords:
			st.fail(fmt.Errorf("node replayed %d records, want %d", n.replayed, e.sz.walRecords))
		default:
			st.lat = append(st.lat, d)
			dur.recoverNS = append(dur.recoverNS, n.recoverNS)
		}
		dur.replayed = n.replayed
		return nil
	}
	phase := func(d time.Duration) (*measured, error) {
		dur.recoverNS = dur.recoverNS[:0]
		var cycleErr error
		m := t.measure(d, func(c int, deadline time.Time, st *opStats) {
			for time.Now().Before(deadline) && cycleErr == nil {
				cycleErr = cycle(st)
			}
		})
		return m, cycleErr
	}
	ref, main, err := e.runPhases(t, phase)
	if err != nil {
		return nil, err
	}
	if err := dur.closeOut(t.node, e.sz.walRecords); err != nil {
		return nil, err
	}
	return e.finish(t, setups, ref, main, dur)
}
