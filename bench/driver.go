package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/workload"
)

// This file is the coordinator side of the two-process topology: it
// builds a pdms.Network whose remote peers are reached through
// transport.Dial, generates all load in closed loops, checks every
// answer against an all-local oracle built from the same seed, and
// measures from outside — wall clock around the public calls, plus the
// counters the layers already export.

// sizes are the workload dimensions. The benchmark always runs
// fullSizes; only the smoke test shrinks them.
type sizes struct {
	chainRows  int // rows per peer on warm-chain
	coldRows   int // rows per peer on cold-sync
	factRows   int // rows of the skewed fact relation
	walRecords int // log records the node replays on every rejoin
	setups     int // set-up is repeated and timed at least this often
	setupTime  time.Duration
}

var fullSizes = sizes{chainRows: 10, coldRows: 200, factRows: 50000, walRecords: 4000, setups: 7, setupTime: time.Second}

// env is what one benchmark run is given.
type env struct {
	def     *workloadDef
	procs   *procs
	seed    int64
	seconds time.Duration
	trace   bool
	sz      sizes
	tmp     string // scratch directory for durable stores
	outDir  string // where spans are written in a traced run; "" = nowhere
}

// oracle is the expected answer of one query, built in the driver from
// the seed without any transport. Answers are sets, so equal length and
// equal sum of row hashes is an order-free equality check that costs
// one pass and no allocation; the sorted-row AnswerDigest is compared
// once per set-up and whenever the cheap check fails.
type oracle struct {
	n      int
	sum    uint64
	digest string
}

func newOracle(r *relation.Relation) *oracle {
	return &oracle{n: r.Len(), sum: hashSum(r), digest: workload.AnswerDigest(r)}
}

func hashSum(r *relation.Relation) uint64 {
	var sum uint64
	for _, row := range r.Rows() {
		sum += row.Hash()
	}
	return sum
}

func (o *oracle) matches(r *relation.Relation) bool { return r.Len() == o.n && hashSum(r) == o.sum }

// writeSums[k] is the sum of the answer-row hashes of writes 0..k-1, so
// "the base answer plus exactly the first k writes" is checked exactly
// at the cost of one pass over the answer.
type writeSums struct {
	mu   sync.Mutex
	sums []uint64
}

func (w *writeSums) upTo(k int) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sums == nil {
		w.sums = []uint64{0}
	}
	for len(w.sums) <= k {
		w.sums = append(w.sums, w.sums[len(w.sums)-1]+writeAnswer(len(w.sums)-1).Hash())
	}
	return w.sums[k]
}

// localAnswer runs req on an all-local network and drains it.
func localAnswer(n *pdms.Network, req pdms.Request) (*relation.Relation, error) {
	cur, err := n.Query(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return cur.Materialize()
}

// opStats is what one client goroutine gathers.
type opStats struct {
	lat       []time.Duration // latency of every correct operation
	attempted int
	failed    int
	retries   int64
	rowsOut   int64
	fallback  int64
	firstErr  error
}

func (s *opStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// topo is one live topology: the node process, the TCP client, and the
// coordinator network that reaches the node through it.
type topo struct {
	e      *env
	node   *node
	client *transport.Client
	tr     *tracer // nil unless the run is traced
	net    *pdms.Network
	// served is the data the node serves, as the driver generated it
	// (for the standalone codec measurement).
	served []relation.Tuple
}

func (t *topo) close() {
	if t.net != nil {
		t.net.StopPush(joinSrcPeer)
	}
	if t.client != nil {
		t.client.Close()
	}
	if t.node != nil {
		t.node.stop(t.e.procs)
	}
}

// dial connects to the node and returns the transport the coordinator
// should use: the client itself, or the tracing decorator around it.
func (t *topo) dial() (pdms.Transport, error) {
	c, err := transport.Dial(t.node.addr)
	if err != nil {
		return nil, err
	}
	t.client = c
	if t.e.trace {
		t.tr = newTracer()
		return &tracedTransport{inner: c, t: t.tr}, nil
	}
	return c, nil
}

// queryIn runs Query and Materialize under the span in ctx and adds the
// cursor's counters to st.
func (t *topo) queryIn(ctx context.Context, req pdms.Request, st *opStats) (*relation.Relation, error) {
	qctx, qs := t.tr.start(ctx, spQuery)
	cur, err := t.net.Query(qctx, req)
	qs.end()
	if err != nil {
		return nil, err
	}
	xs := t.tr.leaf(ctx, spExec)
	rel, err := cur.Materialize()
	xs.end()
	if err != nil {
		return nil, err
	}
	st.retries += int64(cur.Retries())
	st.rowsOut += int64(rel.Len())
	st.fallback += int64(cur.Stats().FallbackBranches)
	return rel, nil
}

// queryOp is one complete read operation: root span, Query,
// Materialize, then (off the clock) the correctness check.
func (t *topo) queryOp(req pdms.Request, want *oracle, st *opStats) {
	ctx, root := t.tr.start(context.Background(), spOp)
	t0 := time.Now()
	rel, err := t.queryIn(ctx, req, st)
	d := time.Since(t0)
	root.end()
	st.attempted++
	switch {
	case err != nil:
		st.fail(err)
	case !want.matches(rel):
		st.fail(fmt.Errorf("wrong answer: %d rows digest %s, oracle %d rows digest %s",
			rel.Len(), workload.AnswerDigest(rel), want.n, want.digest))
	default:
		st.lat = append(st.lat, d)
	}
}

// firstAnswer runs req once outside any measurement and compares the
// answer with the oracle, by the full AnswerDigest where the oracle
// carries one.
func (t *topo) firstAnswer(req pdms.Request, want *oracle) error {
	rel, err := t.queryIn(context.Background(), req, &opStats{})
	if err != nil {
		return err
	}
	if got := workload.AnswerDigest(rel); !want.matches(rel) || (want.digest != "" && got != want.digest) {
		return fmt.Errorf("set-up answer: %d rows digest %s, oracle %d rows digest %s", rel.Len(), got, want.n, want.digest)
	}
	return nil
}

// measured is one timed phase.
type measured struct {
	elapsed time.Duration
	clients []*opStats
	// primary are the latencies op_p50_us is the median of, and their
	// count is what the per-operation metrics divide by: every client's,
	// unless the workload narrows them to one client.
	primary []time.Duration
	heap    uint64 // driver TotalAlloc delta
	wire    uint64 // Client.WireBytes delta
	scans   uint64
	deltas  uint64
	ships   uint64
	pushes  uint64 // push batches delivered
}

func (m *measured) total() (attempted, failed int) {
	for _, c := range m.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

// measure runs body on the workload's client goroutines and records
// what the driver's counters moved meanwhile. Each body loops until its
// deadline and finishes the operation it is in: the loops are closed.
func (t *topo) measure(d time.Duration, body func(client int, deadline time.Time, st *opStats)) *measured {
	clients := t.e.def.clients
	m := &measured{clients: make([]*opStats, clients)}
	var ms0, ms1 runtime.MemStats
	s0, d0, sh0 := t.net.RemoteSyncCounts()
	p0, _, _ := t.net.PushCounts()
	w0 := t.client.WireBytes()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		m.clients[c] = &opStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c, deadline, m.clients[c])
		}()
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	s1, d1, sh1 := t.net.RemoteSyncCounts()
	p1, _, _ := t.net.PushCounts()
	m.heap = ms1.TotalAlloc - ms0.TotalAlloc
	m.wire = t.client.WireBytes() - w0
	m.scans, m.deltas, m.ships, m.pushes = s1-s0, d1-d0, sh1-sh0, p1-p0
	for _, c := range m.clients {
		m.primary = append(m.primary, c.lat...)
	}
	return m
}

// setup builds the topology repeatedly — at least e.sz.setups times and
// until e.sz.setupTime has been spent, so that a 30 ms set-up is timed
// more often than a 200 ms one — timing each build from node spawn to
// the first correct warm answer. It returns the last topology built
// together with every set-up time.
func (e *env) setup(build func() (*topo, error)) (*topo, []time.Duration, error) {
	var times []time.Duration
	start := time.Now()
	for {
		t0 := time.Now()
		t, err := build()
		if err != nil {
			if t != nil {
				t.close()
			}
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if len(times) >= e.sz.setups && time.Since(start) >= e.sz.setupTime {
			return t, times, nil
		}
		t.close()
	}
}

// chainFixture is the 16-peer E2 chain as the driver sees it: the
// oracle answers of the eight title queries posed at the local peers.
type chainFixture struct {
	rows int
	reqs []pdms.Request
	want []*oracle
}

func (e *env) newChainFixture(rows int) (*chainFixture, error) {
	g, err := genChain(e.seed, rows)
	if err != nil {
		return nil, err
	}
	f := &chainFixture{rows: rows}
	for i := 0; i < chainLocal; i++ {
		req := pdms.Request{Peer: workload.PeerName(i), Query: g.TitleQuery(i),
			Reform: pdms.ReformOptions{MaxDepth: chainPeers + 1}}
		rel, err := localAnswer(g.Net, req)
		if err != nil {
			return nil, err
		}
		if rel.Len() != len(g.AllTitles) {
			return nil, fmt.Errorf("chain oracle: %d answers, %d titles generated", rel.Len(), len(g.AllTitles))
		}
		f.reqs = append(f.reqs, req)
		f.want = append(f.want, newOracle(rel))
	}
	return f, nil
}

// build spawns a chain node and a coordinator with peers 0..7 local and
// 8..15 remote, and answers every rotation query once cold and once warm.
func (f *chainFixture) build(e *env) (*topo, error) {
	t := &topo{e: e}
	var err error
	if t.node, err = e.procs.startNode("", "-kind", "chain", "-seed", strconv.FormatInt(e.seed, 10),
		"-rows", strconv.Itoa(f.rows)); err != nil {
		return t, err
	}
	tr, err := t.dial()
	if err != nil {
		return t, err
	}
	// A fresh generation per build: a pdms.Peer remembers every network
	// it joined, so peers are not shared between coordinators.
	g, err := genChain(e.seed, f.rows)
	if err != nil {
		return t, err
	}
	t.net = pdms.NewNetwork()
	for i := 0; i < chainPeers; i++ {
		name := workload.PeerName(i)
		if i < chainLocal {
			err = t.net.AddPeer(g.Net.Peer(name))
		} else {
			_, err = t.net.AddRemotePeer(context.Background(), name, tr)
			t.served = append(t.served, g.Specs[i].Data.Rows()...)
		}
		if err != nil {
			return t, err
		}
	}
	for _, m := range g.Net.Mappings() {
		if err := t.net.AddMapping(m); err != nil {
			return t, err
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, req := range f.reqs {
			if err := t.firstAnswer(req, f.want[i]); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// joinFixture is the skewed join as the driver sees it: the request, the
// oracle answer over the generated fact relation, and the hash sums that
// extend it by the first k writes.
type joinFixture struct {
	req    pdms.Request
	base   *oracle
	writes writeSums
	fact   []relation.Tuple
}

var dimSchema = relation.NewSchema("dim", relation.Attr("key"), relation.Attr("label"))

// newHome builds the coordinator's local peer: the empty fact
// vocabulary relation the mapping fills, and the full 64-key dim.
func newHome(db *relation.Database) (*pdms.Peer, error) {
	home := pdms.NewPeer("home", factSchema, dimSchema)
	for _, row := range db.Get("dim").Rows() {
		if err := home.Insert("dim", row.Clone()); err != nil {
			return nil, err
		}
	}
	return home, nil
}

func srcToHome() *glav.Mapping {
	return glav.MustNew("src2home", joinSrcPeer, cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))
}

func (e *env) newJoinFixture() (*joinFixture, *relation.Database, error) {
	db, q, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: e.sz.factRows, DimKeys: dimKeys, Seed: e.seed})
	if err != nil {
		return nil, nil, err
	}
	f := &joinFixture{
		req:  pdms.Request{Peer: "home", Query: q, Reform: pdms.ReformOptions{MaxDepth: 3}},
		fact: db.Get(joinRel).Rows(),
	}
	src := pdms.NewPeer(joinSrcPeer, factSchema)
	for _, row := range f.fact {
		if err := src.Insert(joinRel, row.Clone()); err != nil {
			return nil, nil, err
		}
	}
	home, err := newHome(db)
	if err != nil {
		return nil, nil, err
	}
	n := pdms.NewNetwork()
	for _, p := range []*pdms.Peer{home, src} {
		if err := n.AddPeer(p); err != nil {
			return nil, nil, err
		}
	}
	if err := n.AddMapping(srcToHome()); err != nil {
		return nil, nil, err
	}
	rel, err := localAnswer(n, f.req)
	if err != nil {
		return nil, nil, err
	}
	f.base = newOracle(rel)
	return f, db, nil
}

// withWrites is the oracle after exactly the first k writes. Only the
// count and the hash sum are known without rebuilding the answer, so
// for k > 0 the digest is left empty.
func (f *joinFixture) withWrites(k int) *oracle {
	if k == 0 {
		return f.base
	}
	return &oracle{n: f.base.n + k, sum: f.base.sum + f.writes.upTo(k)}
}

// build spawns a join node — durable when the workload writes or
// restarts it — optionally fills its log with `prefill` writes, and
// builds the coordinator: home local, src remote, with a live push
// subscription when push is set.
func (f *joinFixture) build(e *env, db *relation.Database, durable bool, prefill int, push bool) (*topo, error) {
	t := &topo{e: e, served: f.fact}
	args := []string{"-kind", "join", "-seed", strconv.FormatInt(e.seed, 10), "-rows", strconv.Itoa(e.sz.factRows)}
	if durable {
		dir, err := os.MkdirTemp(e.tmp, "store-")
		if err != nil {
			return t, err
		}
		args = append(args, "-data", filepath.Join(dir, joinSrcPeer))
	}
	var err error
	if t.node, err = e.procs.startNode("", args...); err != nil {
		return t, err
	}
	if prefill > 0 {
		if _, err := t.node.call(fmt.Sprintf("insert 0 %d", prefill)); err != nil {
			return t, err
		}
	}
	tr, err := t.dial()
	if err != nil {
		return t, err
	}
	home, err := newHome(db)
	if err != nil {
		return t, err
	}
	t.net = pdms.NewNetwork()
	if err := t.net.AddPeer(home); err != nil {
		return t, err
	}
	ctx := context.Background()
	if _, err := t.net.AddRemotePeer(ctx, joinSrcPeer, tr); err != nil {
		return t, err
	}
	if err := t.net.AddMapping(srcToHome()); err != nil {
		return t, err
	}
	want := f.withWrites(prefill)
	if err := t.firstAnswer(f.req, want); err != nil {
		return t, err
	}
	if push {
		if err := t.net.StartPush(ctx, joinSrcPeer); err != nil {
			return t, err
		}
		lctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := t.net.WaitPushLive(lctx, joinSrcPeer); err != nil {
			return t, err
		}
	}
	return t, t.firstAnswer(f.req, want)
}

// percentile returns the p-th percentile (0..100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// codecCost is the standalone relation-layer measurement: encode and
// decode rows in 256-row batches, the frames a Scan moves, and report
// the time and the wire bytes per row.
func codecCost(rows []relation.Tuple) (nsPerRow, bytesPerRow float64, err error) {
	if len(rows) == 0 {
		return 0, 0, nil
	}
	const minRows = 200000 // enough work for a steady mean on a busy host
	total, bytes := 0, 0
	t0 := time.Now()
	for total < minRows {
		for lo := 0; lo < len(rows); lo += pdms.DefaultScanBatch {
			hi := min(lo+pdms.DefaultScanBatch, len(rows))
			enc := relation.EncodeTupleBatch(rows[lo:hi])
			dec, err := relation.DecodeTupleBatch(enc)
			if err != nil || len(dec) != hi-lo {
				return 0, 0, fmt.Errorf("codec round trip of %d rows: got %d, err %v", hi-lo, len(dec), err)
			}
			bytes += len(enc)
		}
		total += len(rows)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(total), float64(bytes) / float64(total), nil
}
