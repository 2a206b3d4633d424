package pdms

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/view"
)

// ReformOptions tunes reformulation. The defaults enable the pruning
// heuristics the paper mentions ("our query answering algorithm is aided
// by heuristics that prune redundant and irrelevant paths through the
// space of mappings", §3.1.1); the flags exist so experiment E4 can
// ablate them.
type ReformOptions struct {
	// MaxDepth bounds the mapping-chain length explored (0 → default 8).
	MaxDepth int
	// MaxRewritings caps the number of final rewritings (0 → default 256).
	MaxRewritings int
	// NoVisitedPruning disables the redundant-path heuristics: the rule
	// that forbids reusing a mapping along one derivation branch (guards
	// against cycles) and the memo of completed sub-searches.
	NoVisitedPruning bool
	// NoContainmentPruning disables dropping rewritings contained in an
	// already-kept rewriting.
	NoContainmentPruning bool
	// NoLAV disables the rewriting-using-views pass for mappings whose
	// source side is a single stored relation.
	NoLAV bool
}

func (o ReformOptions) maxDepth() int {
	if o.MaxDepth <= 0 {
		return 8
	}
	return o.MaxDepth
}

func (o ReformOptions) maxRewritings() int {
	if o.MaxRewritings <= 0 {
		return 256
	}
	return o.MaxRewritings
}

// ReformStats reports work done during reformulation; experiments E2/E4
// read these counters.
type ReformStats struct {
	// Explored counts expansion states visited.
	Explored int
	// Emitted counts complete rewritings before containment pruning.
	Emitted int
	// Kept counts rewritings that survived pruning.
	Kept int
	// PrunedVisited counts expansions skipped by the visited-mapping rule.
	PrunedVisited int
	// PrunedSubsumed counts visits skipped because a completed visit to
	// the same state had at least as much depth and no more used mappings.
	PrunedSubsumed int
	// PrunedContained counts rewritings dropped by containment.
	PrunedContained int
	// PrunedDuplicate counts syntactically duplicate rewritings dropped.
	PrunedDuplicate int
	// PeersTouched counts distinct peers whose storage the kept
	// rewritings read — the number of peers contacted at execution.
	PeersTouched int
	// FallbackBranches is always zero: there is one executor and nothing
	// to fall back to. It remains only because the frozen bench/driver.go
	// reads it; the next benchmark PR retires it.
	FallbackBranches int
}

// Reformulator rewrites queries posed in one peer's schema into unions of
// conjunctive queries over qualified stored relations. A Reformulator is
// single-use state for one Reformulate call chain; it is not safe for
// concurrent use.
type Reformulator struct {
	net     *Network
	opts    ReformOptions
	counter int
	ctx     context.Context
	done    <-chan struct{}
	steps   uint

	// bit numbers the mappings of one Reformulate call for used sets.
	bit map[string]int
	// memo records the completed sub-searches of one Reformulate call
	// by stateKey; nil under NoVisitedPruning.
	memo map[string][]memoEntry
	// keyBuf is stateKey's scratch.
	keyBuf []byte
}

// memoEntry is one completed sub-search of a state: it had depth hops
// of budget left and could not use the mappings in used.
type memoEntry struct {
	depth int
	used  bitset
}

// bitset is a set of mapping numbers (Reformulator.bit).
type bitset []uint64

func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }

// covers reports whether b is a superset of c.
func (b bitset) covers(c bitset) bool {
	for i, w := range c {
		if b[i]&w != w {
			return false
		}
	}
	return true
}

// NewReformulator builds a reformulator over the network.
func NewReformulator(net *Network, opts ReformOptions) *Reformulator {
	return &Reformulator{net: net, opts: opts}
}

func (rf *Reformulator) fresh() string {
	rf.counter++
	return "_m" + strconv.Itoa(rf.counter) + "_"
}

// reformCheckInterval is how many expansion states are visited between
// cancellation polls; expansion states are orders of magnitude more
// expensive than rows, so the interval is smaller than the engine's.
const reformCheckInterval = 64

// tick polls cancellation every reformCheckInterval expansion states.
func (rf *Reformulator) tick() error {
	if rf.done == nil {
		return nil
	}
	rf.steps++
	if rf.steps%reformCheckInterval != 0 {
		return nil
	}
	select {
	case <-rf.done:
		return rf.ctx.Err()
	default:
		return nil
	}
}

// Reformulate turns a query over peer's schema into rewritings whose
// atoms are all qualified stored relations ("peer.rel"). Every returned
// rewriting is sound; together they approximate the certain answers
// reachable through the mapping graph within MaxDepth. The context
// cancels the mapping-graph search and the containment-pruning pass —
// both exponential in the worst case — between expansion states and
// containment checks respectively.
func (rf *Reformulator) Reformulate(ctx context.Context, peer string, q cq.Query) ([]cq.Query, *ReformStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rf.ctx, rf.done = ctx, ctx.Done()
	schemas, ok := rf.net.schemasOf(peer)
	if !ok {
		return nil, nil, fmt.Errorf("pdms: unknown peer %q", peer)
	}
	for _, pred := range q.Predicates() {
		if _, ok := schemas[pred]; !ok {
			return nil, nil, fmt.Errorf("pdms: query uses %q, not in peer %s's schema", pred, peer)
		}
	}
	stats := &ReformStats{}
	qq := glav.Qualify(q, peer)

	// Initial states: the query itself plus any LAV rewritings of it.
	// A LAV rewriting already traversed one mapping, so it starts with
	// one less hop of depth budget.
	type startState struct {
		q     cq.Query
		depth int
	}
	states := []startState{{qq, rf.opts.maxDepth()}}
	if !rf.opts.NoLAV {
		for _, lr := range rf.lavRewritings(peer, q, stats) {
			states = append(states, startState{lr, rf.opts.maxDepth() - 1})
		}
	}

	rf.bit = make(map[string]int, len(rf.net.mappings))
	for _, m := range rf.net.mappings {
		if _, ok := rf.bit[m.ID]; !ok {
			rf.bit[m.ID] = len(rf.bit)
		}
	}
	rf.memo = nil
	if !rf.opts.NoVisitedPruning {
		rf.memo = make(map[string][]memoEntry)
	}
	used := make(bitset, (len(rf.bit)+63)/64)
	var kept []cq.Query
	seen := make(map[string]bool)
	for _, st := range states {
		if err := rf.expand(st.q, 0, st.depth, used, stats, seen, &kept); err != nil {
			return nil, nil, err
		}
		if len(kept) >= rf.opts.maxRewritings() {
			break
		}
	}
	if !rf.opts.NoContainmentPruning {
		var err error
		kept, err = pruneContained(ctx, kept, stats)
		if err != nil {
			return nil, nil, err
		}
	}
	stats.Kept = len(kept)
	stats.PeersTouched = countPeers(kept)
	return kept, stats, nil
}

// expand resolves pending atoms left to right. Index idx is the first
// unresolved atom; atoms before idx are final (stored) atoms. used holds
// the mappings this derivation branch already traversed.
//
// A visit whose state (q, idx) already had a completed visit with at
// least as much depth and no more used mappings is skipped: what a
// sub-search emits only grows with depth and only shrinks as mappings
// are used, so the earlier visit emitted everything this one could, up
// to the names of the fresh variables it minted. Visits are recorded
// when they return, never on entry, so everything a skipped visit could
// emit was emitted before it, and the kept rewritings and their order
// do not change.
func (rf *Reformulator) expand(q cq.Query, idx, depth int, used bitset,
	stats *ReformStats, seen map[string]bool, out *[]cq.Query) error {
	if len(*out) >= rf.opts.maxRewritings() {
		return nil
	}
	if err := rf.tick(); err != nil {
		return err
	}
	if idx >= len(q.Body) {
		stats.Explored++
		key := cq.CanonicalKey(q)
		if seen[key] {
			stats.PrunedDuplicate++
			return nil
		}
		seen[key] = true
		stats.Emitted++
		*out = append(*out, q)
		return nil
	}
	var key string
	if rf.memo != nil {
		kb := rf.stateKey(q, idx)
		for _, e := range rf.memo[string(kb)] {
			if depth <= e.depth && used.covers(e.used) {
				stats.PrunedSubsumed++
				return nil
			}
		}
		key = string(kb)
	}
	stats.Explored++
	atom := q.Body[idx]
	peerName, rel := glav.SplitQualified(atom.Pred)
	schemas, _ := rf.net.schemasOf(peerName)

	// Option 1: read the relation from the owning peer's storage.
	if _, ok := schemas[rel]; ok {
		if err := rf.expand(q, idx+1, depth, used, stats, seen, out); err != nil {
			return err
		}
	}

	// Option 2: unfold through each GAV mapping targeting this relation,
	// using the definition precomputed at mapping registration.
	if depth > 0 {
		defs := rf.net.gavDefs[atom.Pred]
		for mi, m := range rf.net.byTargetRel[atom.Pred] {
			b := rf.bit[m.ID]
			if !rf.opts.NoVisitedPruning && used.has(b) {
				stats.PrunedVisited++
				continue
			}
			expanded, err := cq.ExpandAtom(q, idx, defs[mi], rf.fresh())
			if err != nil {
				continue
			}
			used.set(b)
			err = rf.expand(expanded, idx, depth-1, used, stats, seen, out)
			used.clear(b)
			if err != nil {
				return err
			}
		}
	}
	if rf.memo != nil {
		rf.memo[key] = append(rf.memo[key], memoEntry{depth, slices.Clone(used)})
	}
	return nil
}

// lavRewritings applies the "backward" direction: mappings whose source
// side is a single stored relation at another peer act as views over this
// peer's schema; rewriting the query with those views (plus identity
// views for the peer's own relations) yields alternative starting states
// whose atoms are then expanded as usual.
func (rf *Reformulator) lavRewritings(peer string, q cq.Query, stats *ReformStats) []cq.Query {
	var views []view.View
	remote := 0
	for _, m := range rf.net.byTargetPeer[peer] {
		if !m.IsLAV() {
			continue
		}
		// View named after the qualified source relation, defined by the
		// target-side query over this peer's schema.
		name := glav.QualifiedName(m.SrcPeer, m.SourceAtomPred())
		views = append(views, view.NewView(name, m.TgtQ))
		remote++
	}
	if remote == 0 {
		return nil
	}
	// Identity views let rewritings mix local atoms with remote views.
	schemas, _ := rf.net.schemasOf(peer)
	for _, rel := range slices.Sorted(maps.Keys(schemas)) {
		sch := schemas[rel]
		vars := make([]cq.Term, sch.Arity())
		headVars := make([]string, sch.Arity())
		for i := range vars {
			v := "A" + strconv.Itoa(i)
			vars[i] = cq.V(v)
			headVars[i] = v
		}
		def := cq.Query{HeadPred: rel, HeadVars: headVars,
			Body: []cq.Atom{{Pred: rel, Args: vars}}}
		views = append(views, view.NewView(glav.QualifiedName(peer, rel), def))
	}
	rws, err := view.Rewrite(q, views, view.RewriteOptions{MaxRewritings: rf.opts.maxRewritings()})
	if err != nil {
		return nil
	}
	var out []cq.Query
	for _, rw := range rws {
		// Skip the all-identity rewriting: it duplicates the base state.
		allLocal := true
		for _, a := range rw.Query.Body {
			pn, _ := glav.SplitQualified(a.Pred)
			if pn != peer {
				allLocal = false
				break
			}
		}
		if allLocal {
			continue
		}
		out = append(out, rw.Query)
	}
	return out
}

// containCache memoizes Chandra–Merlin containment verdicts across
// reformulations, keyed by the canonical keys of the container and
// containee. Reformulators name fresh variables deterministically, so
// repeated reformulations of the same query hit the cache instead of
// re-running the exponential mapping search. Bounded: cleared when it
// outgrows containCacheMax entries.
var containCache = struct {
	sync.RWMutex
	m map[string]bool
}{m: make(map[string]bool)}

const containCacheMax = 1 << 16

// resetContainCache empties the containment memo (Network.InvalidateCaches).
func resetContainCache() {
	containCache.Lock()
	containCache.m = make(map[string]bool)
	containCache.Unlock()
}

// cachedContains answers cq.Contains(k, r) through the cache. The
// callers supply the precomputed canonical keys.
func cachedContains(k, r cq.Query, kKey, rKey string) bool {
	ck := strconv.Itoa(len(kKey)) + ":" + kKey + rKey
	containCache.RLock()
	v, ok := containCache.m[ck]
	containCache.RUnlock()
	if ok {
		return v
	}
	v = cq.Contains(k, r)
	containCache.Lock()
	if len(containCache.m) >= containCacheMax {
		containCache.m = make(map[string]bool)
	}
	containCache.m[ck] = v
	containCache.Unlock()
	return v
}

// pruneContained removes rewritings contained in another kept rewriting.
// Canonical keys are computed once per rewriting and containment
// verdicts are memoized, so the O(n²) pass stops re-running the
// Chandra–Merlin search for pairs it has already decided. Each
// containment check is an exponential search in the worst case, so ctx
// is polled once per pair.
func pruneContained(ctx context.Context, rws []cq.Query, stats *ReformStats) ([]cq.Query, error) {
	done := ctx.Done()
	// Favor shorter rewritings as containers.
	sort.SliceStable(rws, func(i, j int) bool { return len(rws[i].Body) < len(rws[j].Body) })
	keys := make([]string, len(rws))
	for i, r := range rws {
		keys[i] = cq.CanonicalKey(r)
	}
	var kept []cq.Query
	var keptKeys []string
	for i, r := range rws {
		redundant := false
		for j, k := range kept {
			if done != nil {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			if cachedContains(k, r, keptKeys[j], keys[i]) {
				redundant = true
				break
			}
		}
		if redundant {
			stats.PrunedContained++
			continue
		}
		kept = append(kept, r)
		keptKeys = append(keptKeys, keys[i])
	}
	return kept, nil
}

func countPeers(rws []cq.Query) int {
	peers := make(map[string]bool)
	for _, r := range rws {
		for _, a := range r.Body {
			pn, _ := glav.SplitQualified(a.Pred)
			if pn != "" {
				peers[pn] = true
			}
		}
	}
	return len(peers)
}

// stateKey encodes the expansion state (q, idx) into rf.keyBuf for the
// sub-search memo. Body order is kept, since it decides the order of
// emission.
func (rf *Reformulator) stateKey(q cq.Query, idx int) []byte {
	rf.keyBuf = cq.AppendKey(binary.AppendUvarint(rf.keyBuf[:0], uint64(idx)), q)
	return rf.keyBuf
}
