package cq

import (
	"context"
	"sync"

	"repro/internal/relation"
)

// This file is the columnar batch kernel, the one production executor
// of a compiled Plan. It streams fixed-size batches of int32 dictionary
// codes — one column per slot, batchSize values per column — through
// the join stages: each stage probes a packed code index (or scans), checks
// equality over codes, and scatters surviving rows forward into the
// next stage's batch. Codes are per-(relation, column), so equality
// between different code spaces goes through small lazily-filled
// translation tables (source code → target code), cached on the
// executor and keyed by the dictionaries involved — append-only
// dictionaries keep cached entries valid, so memos survive across
// branches and across queries. Duplicate elimination hashes head-slot
// code vectors (relation.CodeSet), not Values, and answer tuples are
// bump-allocated from a slab. All batch/translation/slab state lives on
// a pooled batchExec that StreamUnionOpts reuses across every branch of
// a union — one cursor's lifetime — and across unions via a sync.Pool;
// cancellation is polled once per batch of rows examined instead of per
// row.
//
// Every body relation is read through its dictionary encoding
// (relation.Encoding). A relation that was not maintaining one — rows
// appended without Insert, or a NewResult relation — builds it in one
// pass the first time a plan joins against it, so the kernel never
// refuses a plan. A plan with no body atoms has no stages: its single
// virtual input row goes straight to the leaf, which yields the one
// empty answer.

// batchSize is how many rows each column batch holds: large enough to
// amortize per-batch bookkeeping and cancellation polls, small enough
// that a full stage (nslots × batchSize × 4 bytes) stays cache-warm.
const batchSize = 1024

// ctxCheckInterval is how many leaf rows the kernel delivers between
// cancellation polls — small enough that cancellation is prompt, large
// enough that the select never shows up in profiles.
const ctxCheckInterval = 256

// colRef names one code space: a column of one relation's dictionary.
type colRef struct {
	d   *relation.Dict
	col int
}

// transLookup resolves a source-space code to the destination column's
// code space through a memo table sized by the source dictionary:
// 0 = not yet resolved, 1 = the value does not occur in the destination
// column, v ≥ 2 = destination code v-2. Returns -1 on a miss.
func transLookup(tab []int32, src colRef, dst *relation.Dict, dstCol int, code int32) int32 {
	v := tab[code]
	if v == 0 {
		if dc, ok := dst.Code(dstCol, src.d.Value(src.col, code)); ok {
			v = dc + 2
		} else {
			v = 1
		}
		tab[code] = v
	}
	return v - 2
}

// batch op kinds. bOpCheckSlotIn compares against a slot bound by an
// earlier stage (the target code is translated once per input row);
// bOpCheckIntra compares against a column of the same row that binds
// the slot within this very stage (repeated variable in one atom), so
// the translation runs per candidate row between the two column
// dictionaries of the same relation.
type batchOpKind uint8

const (
	bOpBind batchOpKind = iota
	bOpCheckConst
	bOpCheckSlotIn
	bOpCheckIntra
)

// batchOp is one per-column instruction of a stage, the code-space
// analogue of slotOp.
type batchOp struct {
	kind      batchOpKind
	col       int
	slot      int     // bOpBind, bOpCheckSlotIn: the slot involved
	srcCol    int     // bOpCheckIntra: column binding the slot in this row
	constCode int32   // bOpCheckConst: target code in this relation's space
	target    int32   // bOpCheckSlotIn: per-input-row resolved target
	trans     []int32 // bOpCheckSlotIn/bOpCheckIntra: translation memo
	src       colRef  // source code space feeding trans
}

// batchStage is the compiled-for-this-execution form of one atom: its
// encoding, raw code columns, probe strategy, and ops.
type batchStage struct {
	dict  *relation.Dict
	cols  [][]int32
	nrows int

	idx *relation.CodeIndex // nil → scan
	// tail holds the probe column's codes of the rows idx's packed part
	// does not cover, row tailBase onwards; empty unless the relation
	// grew since its lineage last packed the index.
	tail       []int32
	tailBase   int
	probeCol   int
	probeIsVar bool
	probeSlot  int
	probeCode  int32 // constant probes: resolved once
	probeTrans []int32
	probeSrc   colRef

	ops []batchOp
}

// slotBatch is one stage's output batch: a strided flat int32 buffer,
// column s at [s*stride, (s+1)*stride), holding n rows. The stride —
// the batch's row capacity — scales with the branch's relation sizes
// up to batchSize, so a 5-row join does not pay for kilobyte batches:
// a smaller stride only means earlier flushes downstream, never a
// different answer set.
type slotBatch struct {
	buf    []int32
	stride int
	n      int
}

func (b *slotBatch) col(s int) []int32 {
	return b.buf[s*b.stride : (s+1)*b.stride : (s+1)*b.stride]
}

// transKey names one translation memo in the executor's cache: a source
// code space and either a destination column dictionary or, when dst is
// nil, the union output encoder position dstCol. dstWidth pins the
// destination's distinct-value count at memo creation: a cached "value
// absent from destination" entry is valid exactly while the
// destination's value set is unchanged, and that set grows exactly when
// its width does, so growth simply keys a fresh memo. (Output-encoder
// targets need no width — encoding never misses.)
type transKey struct {
	src      *relation.Dict
	srcCol   int
	dst      *relation.Dict
	dstCol   int
	dstWidth int
}

// transCacheMax bounds the memo cache; past it the next acquire clears
// the cache so released executors do not pin stale snapshots forever.
const transCacheMax = 512

// memoFor returns the cached translation memo from src into dst's
// column (or, with dst nil, into output-encoder position dstCol),
// extending it when the source dictionary has grown — entries for
// existing codes stay valid because dictionaries are append-only.
// Caching across branch executions is what makes the warm serving path
// cheap: a repeated query re-resolves nothing, every translation is an
// array read.
func (e *batchExec) memoFor(src colRef, dst *relation.Dict, dstCol int) []int32 {
	k := transKey{src: src.d, srcCol: src.col, dst: dst, dstCol: dstCol}
	if dst != nil {
		k.dstWidth = dst.Width(dstCol)
	}
	w := src.d.Width(src.col)
	m := e.trans[k]
	if len(m) < w {
		grown := make([]int32, w)
		copy(grown, m)
		m = grown
		if e.trans == nil {
			e.trans = make(map[transKey][]int32, 16)
		}
		e.trans[k] = m
	}
	return m
}

// outEnc is the union-wide output encoder for code-mode dedup: one
// dictionary per head column, shared by every branch (each translates
// its head codes into it), so a union deduplicates in one code space.
type outEnc struct {
	cols []outCol
}

type outCol struct {
	m    map[relation.Value]int32
	vals []relation.Value
}

// smallEncWidth mirrors the relation package's small-dictionary rule:
// below it an output column linear-scans its decode table instead of
// paying for a map, which keeps tiny per-update queries allocation-lean.
const smallEncWidth = 8

func newOutEnc(arity int) *outEnc {
	return &outEnc{cols: make([]outCol, arity)}
}

// resize adjusts the encoder to a union's head arity, keeping each
// retained column position's dictionary (the bijection survives reuse;
// positions hidden by a shrink come back intact on the next grow).
func (o *outEnc) resize(arity int) {
	if cap(o.cols) < arity {
		cols := make([]outCol, arity)
		copy(cols, o.cols)
		o.cols = cols
		return
	}
	o.cols = o.cols[:arity]
}

func (o *outEnc) encode(col int, v relation.Value) int32 {
	c := &o.cols[col]
	if c.m == nil {
		for i, u := range c.vals {
			if u == v {
				return int32(i)
			}
		}
		if len(c.vals) < smallEncWidth {
			c.vals = append(c.vals, v)
			return int32(len(c.vals) - 1)
		}
		c.m = make(map[relation.Value]int32, 2*smallEncWidth)
		for i, u := range c.vals {
			c.m[u] = int32(i)
		}
	}
	code, ok := c.m[v]
	if !ok {
		code = int32(len(c.vals))
		c.vals = append(c.vals, v)
		c.m[v] = code
	}
	return code
}

func (o *outEnc) value(col int, code int32) relation.Value { return o.cols[col].vals[code] }

// batchExec is the reusable kernel state of one executing goroutine:
// stage descriptors, per-stage output batches, translation arenas, the
// answer-tuple slab, and the dedup mode. StreamUnionOpts builds one per
// sequential union (code mode: outEnc + CodeSet); each parallel worker
// builds one in tuple mode (answers decode before the shared sharded
// set, which must see Values to dedup across workers' encoders).
type batchExec struct {
	code     bool // code-vector dedup (out/codeSeen) vs the shared sharded set
	out      *outEnc
	codeSeen *relation.CodeSet

	// per-run state
	plan  *Plan
	ctx   context.Context
	done  <-chan struct{}
	yield func(relation.Tuple) bool
	seen  *relation.ShardedTupleSet // tuple mode only
	err   error
	empty bool // a query constant occurs nowhere: zero answers

	stages   []batchStage
	bufs     []*slotBatch
	stride   int // batch row capacity this run (≤ batchSize)
	headSrc  []colRef
	headMemo [][]int32
	vecBuf   []int32
	credit   int // leaf rows between cancellation polls
	exam     int // candidate rows between cancellation polls
	trans    map[transKey][]int32
	valSlab  []relation.Value
	slabLen  int // last value-slab size, for geometric growth
}

// batchExecPool recycles kernel states across queries. The payoff is
// the output encoder: its value↔code maps are query-agnostic (a
// per-column-position bijection over database values), so a recycled
// executor's warm query pays map hits where a fresh one would rebuild
// the whole encoder — for the repeated-query serving path that
// reconstruction dominated the join itself. Translation memos, batch
// buffers, and the dedup set ride along, reset or re-keyed cheaply on
// acquire.
var batchExecPool = sync.Pool{New: func() any { return new(batchExec) }}

// getBatchExec returns a (possibly recycled) kernel state for unions of
// the given head arity; codeMode selects code-vector dedup (sequential
// unions) over the pool's shared sharded set (parallel workers). Callers
// release the state back to the pool when the union completes.
func getBatchExec(arity int, codeMode bool) *batchExec {
	e := batchExecPool.Get().(*batchExec)
	if cap(e.vecBuf) < arity {
		e.vecBuf = make([]int32, arity)
	}
	e.vecBuf = e.vecBuf[:arity]
	e.code = codeMode
	if len(e.trans) > transCacheMax {
		clear(e.trans) // memos re-derive on demand; don't pin old snapshots
	}
	if codeMode {
		if e.out == nil {
			e.out = newOutEnc(arity)
			e.codeSeen = relation.NewCodeSet(16)
		} else {
			e.out.resize(arity)
			e.codeSeen.Reset()
		}
	}
	return e
}

// release drops the per-run references (contexts, callbacks, the plan)
// and returns the state to the pool; the warm encoder, arenas, and
// batch buffers stay with it for the next union.
func (e *batchExec) release() {
	e.plan = nil
	e.ctx = nil
	e.done = nil
	e.yield = nil
	e.seen = nil
	e.err = nil
	batchExecPool.Put(e)
}

// run executes one branch through the batch kernel, yielding each
// distinct answer. seen is the dedup set in tuple mode and ignored in
// code mode.
func (e *batchExec) run(ctx context.Context, p *Plan, seen *relation.ShardedTupleSet, yield func(relation.Tuple) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.setup(p)
	e.plan, e.ctx, e.done, e.yield, e.seen, e.err = p, ctx, ctx.Done(), yield, seen, nil
	e.credit, e.exam = ctxCheckInterval, batchSize
	if e.empty {
		return nil // a constant matches no row: zero answers, decided at setup
	}
	var virtual slotBatch
	virtual.n = 1
	if e.pushBatch(0, &virtual) {
		for d := range e.stages {
			b := e.bufs[d]
			if b.n > 0 {
				if !e.pushBatch(d+1, b) {
					break
				}
				b.n = 0
			}
		}
	}
	return e.err
}

// setup compiles the plan against the relations' encodings, reusing the
// previous run's backing arrays. It sets e.empty when a constant in the
// query does not occur in its column (the branch provably yields
// nothing).
func (e *batchExec) setup(p *Plan) {
	natoms := len(p.atoms)
	if cap(e.stages) < natoms {
		e.stages = make([]batchStage, natoms)
		e.bufs = make([]*slotBatch, natoms)
	}
	e.stages = e.stages[:natoms]
	e.bufs = e.bufs[:natoms]
	e.empty = false
	// Batch row capacity: scaled to the branch's largest relation so
	// tiny joins allocate tiny batches.
	e.stride = 16
	for d := 0; d < natoms; d++ {
		if n := p.atoms[d].rel.Len(); n > e.stride {
			e.stride = n
		}
	}
	if e.stride > batchSize {
		e.stride = batchSize
	}
	for d := 0; d < natoms; d++ {
		ap := &p.atoms[d]
		dict := ap.rel.Encoding()
		st := &e.stages[d]
		*st = batchStage{dict: dict, nrows: dict.Len(), probeCol: ap.probeCol,
			ops: st.ops[:0], cols: st.cols[:0]}
		for c := 0; c < len(ap.rel.Schema.Attrs); c++ {
			st.cols = append(st.cols, dict.Codes(c))
		}
		probeOpNeeded := false
		if ap.probeCol >= 0 {
			if ap.rel.Len() > 16 {
				st.idx = ap.rel.EnsureCodeIndex(ap.probeCol)
				st.tailBase, st.tail = st.idx.Tail()
			} else {
				probeOpNeeded = true
			}
			if ap.probeIsVar {
				st.probeIsVar = true
				st.probeSlot = ap.probeSlot
				st.probeSrc = e.slotRef(p, ap.probeSlot)
				st.probeTrans = e.memoFor(st.probeSrc, dict, ap.probeCol)
			} else {
				code, ok := dict.Code(ap.probeCol, ap.probeVal)
				if !ok {
					e.empty = true
					return
				}
				st.probeCode = code
			}
			if probeOpNeeded {
				// Small relation, no index: the probe column becomes an
				// ordinary check op over the scan.
				if ap.probeIsVar {
					st.ops = append(st.ops, batchOp{kind: bOpCheckSlotIn, col: ap.probeCol,
						slot: ap.probeSlot, trans: st.probeTrans, src: st.probeSrc})
				} else {
					st.ops = append(st.ops, batchOp{kind: bOpCheckConst, col: ap.probeCol,
						constCode: st.probeCode})
				}
				st.idx = nil
				st.probeIsVar = false
			}
		}
		for _, op := range ap.ops {
			switch op.kind {
			case opBind:
				st.ops = append(st.ops, batchOp{kind: bOpBind, col: op.col, slot: op.slot})
			case opCheckConst:
				code, ok := dict.Code(op.col, op.val)
				if !ok {
					e.empty = true
					return
				}
				st.ops = append(st.ops, batchOp{kind: bOpCheckConst, col: op.col, constCode: code})
			case opCheckSlot:
				src := p.slotSrc[op.slot]
				if src.atom == d {
					// Repeated variable within this atom: compare two
					// columns of the same candidate row.
					bop := batchOp{kind: bOpCheckIntra, col: op.col, srcCol: src.col,
						src: colRef{d: dict, col: src.col}}
					bop.trans = e.memoFor(bop.src, dict, op.col)
					st.ops = append(st.ops, bop)
				} else {
					ref := e.slotRef(p, op.slot)
					st.ops = append(st.ops, batchOp{kind: bOpCheckSlotIn, col: op.col,
						slot: op.slot, trans: e.memoFor(ref, dict, op.col), src: ref})
				}
			}
		}
		need := p.boundBefore[d+1] * e.stride
		if e.bufs[d] == nil || cap(e.bufs[d].buf) < need {
			e.bufs[d] = &slotBatch{buf: make([]int32, need)}
		}
		e.bufs[d].buf = e.bufs[d].buf[:need]
		e.bufs[d].stride = e.stride
		e.bufs[d].n = 0
	}
	if cap(e.headSrc) < len(p.headSlots) {
		e.headSrc = make([]colRef, len(p.headSlots))
		e.headMemo = make([][]int32, len(p.headSlots))
	}
	e.headSrc = e.headSrc[:len(p.headSlots)]
	e.headMemo = e.headMemo[:len(p.headSlots)]
	for j, hs := range p.headSlots {
		e.headSrc[j] = e.slotRef(p, hs)
		if e.code {
			e.headMemo[j] = e.memoFor(e.headSrc[j], nil, j)
		}
	}
}

// slotRef resolves a slot to the code space of its binding column using
// the stages already set up (slots bind in stage order, so the source
// stage precedes any reader).
func (e *batchExec) slotRef(p *Plan, slot int) colRef {
	src := p.slotSrc[slot]
	return colRef{d: e.stages[src.atom].dict, col: src.col}
}

// poll checks cancellation; false stops the whole branch.
func (e *batchExec) poll() bool {
	if e.done == nil {
		return true
	}
	select {
	case <-e.done:
		e.err = e.ctx.Err()
		return false
	default:
		return true
	}
}

// examTick counts one candidate row against the batch-boundary
// cancellation budget: one poll per batchSize rows examined.
func (e *batchExec) examTick() bool {
	e.exam--
	if e.exam > 0 {
		return true
	}
	e.exam = batchSize
	return e.poll()
}

// pushBatch drives the input batch through stage d, recursing with each
// filled output batch; at d == len(stages) the batch holds complete
// bindings and goes to the leaf. Returns false to stop (cancellation,
// consumer break); partial output batches stay in e.bufs[d] for the
// caller's end-of-input flush cascade.
func (e *batchExec) pushBatch(d int, in *slotBatch) bool {
	if d == len(e.stages) {
		return e.leaf(in)
	}
	st := &e.stages[d]
	out := e.bufs[d]
	copyWidth := e.plan.boundBefore[d]
	for i := 0; i < in.n; i++ {
		// Hoist per-input-row work: resolve the probe code and every
		// earlier-stage slot check into this relation's code space once.
		probeCode := st.probeCode
		if st.probeIsVar {
			probeCode = transLookup(st.probeTrans, st.probeSrc, st.dict, st.probeCol,
				in.col(st.probeSlot)[i])
			if probeCode < 0 {
				continue
			}
		}
		skip := false
		for oi := range st.ops {
			op := &st.ops[oi]
			if op.kind != bOpCheckSlotIn {
				continue
			}
			op.target = transLookup(op.trans, op.src, st.dict, op.col, in.col(op.slot)[i])
			if op.target < 0 {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if st.idx != nil {
			for _, rid := range st.idx.Rows(probeCode) {
				if !e.examTick() {
					return false
				}
				if !e.emitRow(d, st, out, in, i, copyWidth, int(rid)) {
					return false
				}
			}
			for j, c := range st.tail {
				if c != probeCode {
					continue
				}
				if !e.examTick() {
					return false
				}
				if !e.emitRow(d, st, out, in, i, copyWidth, st.tailBase+j) {
					return false
				}
			}
			continue
		}
		for rid := 0; rid < st.nrows; rid++ {
			if !e.examTick() {
				return false
			}
			if !e.emitRow(d, st, out, in, i, copyWidth, rid) {
				return false
			}
		}
	}
	return true
}

// emitRow checks one candidate row against the stage's ops and, on
// success, scatters the surviving bindings into the output batch,
// recursing when it fills.
func (e *batchExec) emitRow(d int, st *batchStage, out, in *slotBatch, i, copyWidth, rid int) bool {
	for oi := range st.ops {
		op := &st.ops[oi]
		switch op.kind {
		case bOpCheckConst:
			if st.cols[op.col][rid] != op.constCode {
				return true
			}
		case bOpCheckSlotIn:
			if st.cols[op.col][rid] != op.target {
				return true
			}
		case bOpCheckIntra:
			t := transLookup(op.trans, op.src, st.dict, op.col, st.cols[op.srcCol][rid])
			if t < 0 || st.cols[op.col][rid] != t {
				return true
			}
		}
	}
	k := out.n
	for s := 0; s < copyWidth; s++ {
		out.col(s)[k] = in.col(s)[i]
	}
	for oi := range st.ops {
		op := &st.ops[oi]
		if op.kind == bOpBind {
			out.col(op.slot)[k] = st.cols[op.col][rid]
		}
	}
	out.n = k + 1
	if out.n == out.stride {
		if !e.pushBatch(d+1, out) {
			return false
		}
		out.n = 0
	}
	return true
}

// leaf consumes a batch of complete bindings: head-slot codes translate
// into the union's output code space (memoized per source code), the
// code vector dedups through the shared CodeSet, and fresh answers
// materialize as Tuples bump-allocated from the slab. In tuple mode the
// answer decodes first and dedups through the shared sharded set. A
// cancellation poll runs every ctxCheckInterval leaf rows, so a
// cancelled consumer sees at most ctxCheckInterval+1 further yields.
func (e *batchExec) leaf(in *slotBatch) bool {
	hs := e.plan.headSlots
	for i := 0; i < in.n; i++ {
		e.credit--
		if e.credit <= 0 {
			if !e.poll() {
				return false
			}
			e.credit = ctxCheckInterval
		}
		if e.code {
			for j, s := range hs {
				c := in.col(s)[i]
				m := e.headMemo[j]
				oc := m[c]
				if oc == 0 {
					ref := e.headSrc[j]
					oc = e.out.encode(j, ref.d.Value(ref.col, c)) + 1
					m[c] = oc
				}
				e.vecBuf[j] = oc - 1
			}
			if !e.codeSeen.Add(e.vecBuf) {
				continue
			}
			t := e.newTuple(len(hs))
			for j := range hs {
				t[j] = e.out.value(j, e.vecBuf[j])
			}
			if !e.yield(t) {
				return false
			}
		} else {
			t := e.newTuple(len(hs))
			for j, s := range hs {
				ref := e.headSrc[j]
				t[j] = ref.d.Value(ref.col, in.col(s)[i])
			}
			if e.seen.Add(t) && !e.yield(t) {
				return false
			}
		}
	}
	return true
}

// newTuple bump-allocates an answer tuple from the value slab, which
// grows geometrically with demand (one allocation per slab, not per
// answer; small result sets pay for small slabs). Handed-out tuples are
// never reused — the slab only ever advances — so consumers and dedup
// sets may retain them.
func (e *batchExec) newTuple(n int) relation.Tuple {
	if len(e.valSlab) < n {
		size := 2 * e.slabLen
		if size < 32 {
			size = 32
		}
		if size > batchSize {
			size = batchSize
		}
		if size < n {
			size = n
		}
		e.slabLen = size
		e.valSlab = make([]relation.Value, size)
	}
	t := relation.Tuple(e.valSlab[:n:n])
	e.valSlab = e.valSlab[n:]
	return t
}
