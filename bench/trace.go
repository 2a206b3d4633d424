package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// This file is the from-outside tracing: spans are recorded in the
// benchmark's own code, around each call into a layer's public
// function. Spans inside the program are a later issue, so a layer's
// time here is what its caller waited for it, and server-side self time
// is visible only where the node reports it (store.*).

// spanName indexes spanNames; a span stores the index, not the string.
type spanName uint8

const (
	spOp spanName = iota
	spQuery
	spExec
	spState
	spSchemas
	spScan
	spDelta
	spExecPlan
	spPushWait
	spNodeInsert
	spAppend
	spKill
	spRestart
	spRecover
	numSpanNames
)

// spanNames are "<module>.<call>": the module is the repo layer the
// time belongs to. "bench.*" spans are the harness's own work (pipes,
// process spawn) and "op" is the root, whose self time is the glue
// between calls — reported as unattributed.
var spanNames = [numSpanNames]string{
	spOp:         "op",
	spQuery:      "pdms.query",
	spExec:       "cq.exec",
	spState:      "transport.state",
	spSchemas:    "transport.schemas",
	spScan:       "transport.scan",
	spDelta:      "transport.delta",
	spExecPlan:   "transport.execplan",
	spPushWait:   "pdms.push_wait",
	spNodeInsert: "bench.insert_ipc",
	spAppend:     "store.append",
	spKill:       "bench.kill",
	spRestart:    "bench.spawn",
	spRecover:    "store.recover",
}

// span is one recorded interval. op is the id of the root span of the
// operation that caused it; parent is the id of the span that caused it.
type span struct {
	name       spanName
	op         uint32
	id, parent uint32
	start, end int64 // ns since the tracer's epoch
}

type spanRef struct{ op, id uint32 }

type spanCtxKey struct{}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing.
type tracer struct {
	on       atomic.Bool
	epoch    time.Time
	nextID   atomic.Uint32
	scanRows atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// liveSpan is an open span; end records it.
type liveSpan struct {
	t     *tracer
	name  spanName
	self  spanRef
	par   uint32
	start int64
}

// start opens a span caused by the span in ctx and returns a context
// that names it as the cause of whatever is called with it. spOp opens
// an operation's root span; any other span outside an operation (set-up
// queries, write-push's second client, the push subscription) is not
// recorded.
func (t *tracer) start(ctx context.Context, name spanName) (context.Context, liveSpan) {
	sp := t.leaf(ctx, name)
	if sp.t == nil {
		return ctx, sp
	}
	return context.WithValue(ctx, spanCtxKey{}, sp.self), sp
}

// leaf is start for a span that causes no further spans.
func (t *tracer) leaf(ctx context.Context, name spanName) liveSpan {
	if t == nil || !t.on.Load() {
		return liveSpan{}
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	self := spanRef{op: parent.op, id: t.nextID.Add(1)}
	if name == spOp {
		self.op = self.id
	} else if parent.op == 0 {
		return liveSpan{}
	}
	return liveSpan{t: t, name: name, self: self, par: parent.id, start: t.now()}
}

func (s liveSpan) end() {
	if s.t != nil {
		s.t.add(s.name, s.self, s.par, s.start, s.t.now())
	}
}

// child records a finished span inside s whose duration was measured
// elsewhere (by the node); it is placed so that it ends now.
func (s liveSpan) child(name spanName, dur int64) {
	if s.t != nil {
		end := s.t.now()
		start := max(end-dur, s.start)
		s.t.add(name, spanRef{op: s.self.op, id: s.t.nextID.Add(1)}, s.self.id, start, end)
	}
}

func (t *tracer) add(name spanName, self spanRef, parent uint32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: self.op, id: self.id, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

// fullTransport is everything transport.Client offers a coordinator.
type fullTransport interface {
	pdms.DeltaTransport
	pdms.PlanTransport
	pdms.PushTransport
}

// tracedTransport records a span around every transport call. It must
// implement all four transport interfaces: pdms discovers the optional
// ones by type assertion, so a decorator that dropped one would
// silently take the delta, ship or push path away from the coordinator.
type tracedTransport struct {
	inner fullTransport
	t     *tracer
}

var (
	_ pdms.Transport      = (*tracedTransport)(nil)
	_ pdms.DeltaTransport = (*tracedTransport)(nil)
	_ pdms.PlanTransport  = (*tracedTransport)(nil)
	_ pdms.PushTransport  = (*tracedTransport)(nil)
)

func (d *tracedTransport) State(ctx context.Context, peer string) (pdms.PeerState, error) {
	sp := d.t.leaf(ctx, spState)
	defer sp.end()
	return d.inner.State(ctx, peer)
}

func (d *tracedTransport) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	sp := d.t.leaf(ctx, spSchemas)
	defer sp.end()
	return d.inner.Schemas(ctx, peer)
}

func (d *tracedTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	sp := d.t.leaf(ctx, spScan)
	defer sp.end()
	if sp.t == nil {
		return d.inner.Scan(ctx, peer, rel, deliver)
	}
	return d.inner.Scan(ctx, peer, rel, func(batch []relation.Tuple) error {
		d.t.scanRows.Add(int64(len(batch)))
		return deliver(batch)
	})
}

func (d *tracedTransport) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	sp := d.t.leaf(ctx, spDelta)
	defer sp.end()
	return d.inner.Delta(ctx, peer, rel, since)
}

func (d *tracedTransport) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	ls := d.t.leaf(ctx, spExecPlan)
	defer ls.end()
	return d.inner.ExecPlan(ctx, peer, sp, deliver)
}

func (d *tracedTransport) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(pdms.PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	return d.inner.Subscribe(ctx, peer, since, ack, deliver)
}

func (d *tracedTransport) Close() error { return d.inner.Close() }

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name string `json:"name"`
	// WallUSPerOp is the layer's self time per operation: the part of
	// the operation's wall-clock interval during which a span of this
	// name was the deepest one open. The rows of one table add up to the
	// mean operation latency.
	WallUSPerOp float64 `json:"self_us_per_op"`
	SharePct    float64 `json:"share_pct"`
	// BusyUSPerOp sums the spans' durations; it exceeds the self time
	// when calls overlap (parallel State probes) or have children.
	BusyUSPerOp float64 `json:"busy_us_per_op"`
	CallsPerOp  float64 `json:"calls_per_op"`
}

type layerAcc struct{ wall, busy, calls int64 }

// layerTable attributes every instant of every traced operation to the
// deepest span open at that instant and returns one row per span name
// seen, the root's row renamed "unattributed", plus the operation count.
func (t *tracer) layerTable() ([]layerRow, int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].start < spans[j].start
	})
	var acc [numSpanNames]layerAcc
	ops := 0
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		if spans[i].op != 0 && attribute(spans[i:j], &acc) {
			ops++
		}
		i = j
	}
	if ops == 0 {
		return nil, 0
	}
	total := int64(0)
	for _, a := range acc {
		total += a.wall
	}
	var rows []layerRow
	for name, a := range acc {
		if a.calls == 0 {
			continue
		}
		label := spanNames[name]
		if spanName(name) == spOp {
			label = "unattributed"
		}
		rows = append(rows, layerRow{
			Name:        label,
			WallUSPerOp: float64(a.wall) / float64(ops) / 1e3,
			SharePct:    100 * float64(a.wall) / float64(total),
			BusyUSPerOp: float64(a.busy) / float64(ops) / 1e3,
			CallsPerOp:  float64(a.calls) / float64(ops),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].WallUSPerOp > rows[j].WallUSPerOp })
	return rows, ops
}

// attribute adds one operation's spans to acc. It reports false when
// the group has no root span (the operation was cut off by the end of
// the run).
func attribute(group []span, acc *[numSpanNames]layerAcc) bool {
	root := -1
	index := make(map[uint32]int, len(group))
	for i, s := range group {
		index[s.id] = i
		if s.name == spOp {
			root = i
		}
	}
	if root < 0 {
		return false
	}
	lo, hi := group[root].start, group[root].end
	depth := make([]int, len(group))
	cuts := make([]int64, 0, 2*len(group))
	for i, s := range group {
		for p := s.parent; p != 0; {
			pi, ok := index[p]
			if !ok {
				break
			}
			depth[i]++
			p = group[pi].parent
		}
		acc[s.name].busy += s.end - s.start
		acc[s.name].calls++
		cuts = append(cuts, min(max(s.start, lo), hi), min(max(s.end, lo), hi))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if a == b {
			continue
		}
		deepest := root
		for i, s := range group {
			if s.start <= a && b <= s.end && depth[i] > depth[deepest] {
				deepest = i
			}
		}
		acc[group[deepest].name].wall += b - a
	}
	return true
}

// writeSpans writes the driver's spans, then the node's, as JSON lines.
func (t *tracer) writeSpans(path string, nodeSpans []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"proc\":\"driver\",\"name\":%q,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			spanNames[s.name], s.op, s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	// Node spans carry Unix times; the epoch line lets a reader align them.
	fmt.Fprintf(w, "{\"proc\":\"driver\",\"name\":\"epoch\",\"unix_ns\":%d}\n", t.epoch.UnixNano())
	for _, line := range nodeSpans {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
