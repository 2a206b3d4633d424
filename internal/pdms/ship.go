package pdms

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// This file is the plan-shipping tier of the distributed PDMS: instead
// of mirroring a whole remote relation whose fingerprint moved
// (O(relation) bytes per cold refresh), the coordinator can ship a
// bound conjunctive sub-plan to the serving peer and stream back only
// the distinct result tuples (O(answers) bytes) — classic semi-join /
// bound-parameter shipping. The coordinator forwards the distinct
// binding values its exactly-current local relations already hold for
// the shipped atoms' join variables, so the remote side filters before
// sending. Shipping is the top rung of the sync ladder (remote.go):
// Request.Ship — through the statistics model when set to ShipAuto —
// decides per stale relation whether the ship rung is on its ladder, a
// typed refusal falls to the delta and scan rungs, and the rung that
// won is reported per relation through Cursor.SyncPaths.

// ShipMode selects how a request refreshes stale remote relations.
type ShipMode int

// Ship modes of Request.Ship.
const (
	// ShipNever keeps the mirror behavior: stale remote relations are
	// refreshed by delta catch-up or full scan, never by remote
	// execution. The zero value, so existing requests are unchanged.
	ShipNever ShipMode = iota
	// ShipAuto lets the statistics model decide per relation: a stale
	// relation ships when the estimated result size (rows × per-column
	// selectivities of its atoms' constants and forwarded bindings) is
	// well under the relation's row count, and mirrors otherwise.
	// Relations without per-column distinct estimates mirror.
	ShipAuto
	// ShipAlways ships every eligible stale relation regardless of the
	// statistics model — the deterministic mode the differential tests
	// pin the ship path with. Ineligible relations (an atom with no
	// variables) and relations whose serving node refuses the plan
	// still mirror.
	ShipAlways
)

// ErrPlanUnsupported reports that a serving peer cannot execute a
// shipped sub-plan — the transport or server predates the Query op, or
// the plan does not compile against the peer's schema. It is a clean
// fallback signal, not a failure: the coordinator mirrors the relation
// instead, on the same pooled connection. Test with errors.Is.
var ErrPlanUnsupported = errors.New("pdms: remote plan execution unsupported")

// ErrPlanBudget reports a shipped sub-plan that produced more distinct
// answers than its row budget — the cost model guessed wrong, and the
// serving side refuses to stream an unbounded result. It wraps
// ErrPlanUnsupported so one errors.Is covers the mirror fallback; test
// for this specific cause with errors.Is(err, ErrPlanBudget).
var ErrPlanBudget = fmt.Errorf("%w: row budget exceeded", ErrPlanUnsupported)

// DefaultShipRowBudget caps a shipped sub-plan's distinct answers (a
// limited query clamps it further, see shipLimitFactor). A plan that
// overflows its budget is not truncated: the serving peer fails it
// typed (ErrPlanBudget) and the relation falls to the mirror rungs.
// Generous — the budget is a backstop against a cost-model miss
// streaming a near-full relation through the answer path, not a tuning
// knob.
const DefaultShipRowBudget = 1 << 20

// shipLimitFactor converts a query's answer Limit into a shipped
// sub-plan row budget: budget = Limit × factor. A sub-plan computes one
// rewriting's contribution before the coordinator's cross-rewriting
// dedup, union, and join steps, so its row count can legitimately
// exceed the final answer count — the factor leaves that headroom.
// Because budgets fail typed rather than truncate (ErrPlanBudget →
// mirror fallback, answers stay exact), a clamp that turns out too
// tight costs only the ship-path savings, never correctness.
const shipLimitFactor = 64

// shipBindingCap bounds a forwarded binding's distinct value set. A
// set larger than this is dropped (not truncated — a truncated binding
// would wrongly exclude rows), so a low-selectivity column never ships
// a megabyte of values to save a kilobyte of tuples.
const shipBindingCap = 2048

// SyncPath records which refresh path one remote relation took during
// request preparation: "ship" (remote sub-plan execution), "push"
// (replica already current from a live push subscription — no bytes
// moved at query time), "delta" (change-record catch-up), or "scan"
// (full mirror re-scan).
type SyncPath struct {
	// Peer is the remote peer serving the relation.
	Peer string
	// Rel is the relation's unqualified name at that peer.
	Rel string
	// Path is "ship", "push", "delta", or "scan".
	Path string
}

// ServingExecPlan compiles and executes a shipped sub-plan against this
// peer's stored relations: the serving half of plan shipping. The
// referenced relations are snapshotted under the serving read lock
// (like ServingScan), then the plan — the sub-plan's atoms plus one
// synthetic single-column relation per forwarded binding — streams its
// distinct answers through deliver in batches of batch tuples
// (DefaultScanBatch when <= 0), honoring ctx cancellation at batch
// boundaries. schema is called exactly once, before the first batch,
// with the answer schema. A plan the peer cannot execute (unknown
// relation, unsafe query, binding over a variable no atom binds)
// returns an ErrPlanUnsupported-class error; a plan whose distinct
// answers exceed sp.RowBudget returns ErrPlanBudget — an error, never
// a truncation. Batches handed to deliver are owned by the callee.
func (p *Peer) ServingExecPlan(ctx context.Context, sp relation.SubPlan, batch int,
	schema func(relation.Schema) error, deliver func([]relation.Tuple) error) error {
	if len(sp.Atoms) == 0 {
		return fmt.Errorf("%w: empty sub-plan", ErrPlanUnsupported)
	}
	db := relation.NewDatabase()
	p.serveMu.RLock()
	for _, a := range sp.Atoms {
		if db.Get(a.Pred) != nil {
			continue
		}
		r := p.Store.Get(a.Pred)
		if r == nil {
			p.serveMu.RUnlock()
			return fmt.Errorf("%w: peer %s has no relation %q", ErrPlanUnsupported, p.Name, a.Pred)
		}
		db.Put(r.SnapshotAs(a.Pred))
	}
	p.serveMu.RUnlock()
	q, err := subPlanQuery(db, sp)
	if err != nil {
		return err
	}
	plan, err := cq.Compile(db, q)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPlanUnsupported, err)
	}
	if err := schema(cq.HeadSchemaFor(db, q)); err != nil {
		return err
	}
	if batch <= 0 {
		batch = DefaultScanBatch
	}
	opts := cq.ExecOptions{}
	if sp.RowBudget > 0 && sp.RowBudget < math.MaxInt-1 {
		// One past the budget: receiving that answer is the overflow.
		opts.Limit = int(sp.RowBudget) + 1
	}
	buf := make([]relation.Tuple, 0, batch)
	var count uint64
	var cbErr error
	err = plan.StreamOpts(ctx, opts, func(t relation.Tuple) bool {
		count++
		if sp.RowBudget > 0 && count > sp.RowBudget {
			cbErr = fmt.Errorf("%w (%d)", ErrPlanBudget, sp.RowBudget)
			return false
		}
		buf = append(buf, t)
		if len(buf) == batch {
			if e := deliver(buf); e != nil {
				cbErr = e
				return false
			}
			buf = make([]relation.Tuple, 0, batch)
		}
		return true
	})
	if cbErr != nil {
		return cbErr
	}
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		return deliver(buf)
	}
	return nil
}

// subPlanQuery converts a wire sub-plan into the conjunctive query the
// serving peer compiles: the atoms verbatim, plus one atom over a
// synthetic single-column relation per forwarded binding (added to db),
// so binding restriction is just another join. Binding values whose
// kind cannot match the variable's column type are dropped — they
// could never join — which also keeps the synthetic relation well
// typed.
func subPlanQuery(db *relation.Database, sp relation.SubPlan) (cq.Query, error) {
	q := cq.Query{HeadPred: "__ship", HeadVars: sp.HeadVars}
	varType := make(map[string]relation.Type)
	for _, a := range sp.Atoms {
		r := db.Get(a.Pred)
		if r.Schema.Arity() != len(a.Args) {
			return cq.Query{}, fmt.Errorf("%w: atom %s has %d args, relation has arity %d",
				ErrPlanUnsupported, a.Pred, len(a.Args), r.Schema.Arity())
		}
		atom := cq.Atom{Pred: a.Pred, Args: make([]cq.Term, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar {
				atom.Args[i] = cq.V(t.Var)
				if _, seen := varType[t.Var]; !seen {
					varType[t.Var] = r.Schema.Attrs[i].Type
				}
			} else {
				atom.Args[i] = cq.C(t.Const)
			}
		}
		q.Body = append(q.Body, atom)
	}
	for _, b := range sp.Bindings {
		typ, bound := varType[b.Var]
		if !bound {
			return cq.Query{}, fmt.Errorf("%w: binding for variable %q no atom binds", ErrPlanUnsupported, b.Var)
		}
		name := "__bind_" + b.Var
		if db.Get(name) != nil {
			return cq.Query{}, fmt.Errorf("%w: binding relation name %q collides", ErrPlanUnsupported, name)
		}
		br := relation.New(relation.Schema{Name: name,
			Attrs: []relation.Attribute{{Name: b.Var, Type: typ}}})
		for _, v := range b.Values {
			if v.Kind != typ {
				continue
			}
			if err := br.Insert(relation.Tuple{v}); err != nil {
				return cq.Query{}, fmt.Errorf("%w: %v", ErrPlanUnsupported, err)
			}
		}
		db.Put(br)
		q.Body = append(q.Body, cq.Atom{Pred: name, Args: []cq.Term{cq.V(b.Var)}})
	}
	return q, nil
}

// shipSpec describes how one stale remote relation will be refreshed by
// remote execution: one shipped sub-plan per distinct (atom pattern,
// bindings) pair the rewritings reference it through. The union of the
// parts' reconstructed rows is a subset of the remote relation
// sufficient for every one of those atoms.
type shipSpec struct {
	parts []shipPart
}

// shipPart is one shipped sub-plan plus the qualified atom whose
// pattern reconstructs full-width relation rows from returned head
// tuples (head variables fill the variable positions, the pattern's
// constants fill the rest).
type shipPart struct {
	sp   relation.SubPlan
	atom cq.Atom
}

// planShips decides, per stale relation the fetch path queued, whether
// the ship rung is on its ladder, attaching a shipSpec to the jobs that
// ship. Eligibility: every atom referencing the relation carries
// at least one variable (a reconstructed row needs the variable
// positions to cover what the pattern's constants don't); whether the
// serving node can run a plan at all is its answer to ExecPlan, and a
// typed refusal mirrors inside the same job. Under ShipAuto the
// statistics model additionally requires the estimated shipped bytes —
// result rows plus forwarded binding values — to be well under the
// relation's row count; relations without per-column distinct
// estimates mirror. Caller holds n.remoteMu.
func (n *Network) planShips(rws []cq.Query, jobs []fetchJob, mode ShipMode,
	rowBudget uint64, degraded map[string]*DegradedPeer) {
	if mode == ShipNever {
		return
	}
	byQName := make(map[string]*fetchJob, len(jobs))
	for i := range jobs {
		byQName[glav.QualifiedName(jobs[i].rp.name, jobs[i].rel)] = &jobs[i]
	}
	ineligible := make(map[string]bool)
	// partSeen keys a relation's queued parts by their deterministic wire
	// encoding (bindings are sorted by construction), so identical
	// (pattern, bindings) pairs referenced by several rewritings ship once.
	partSeen := make(map[string]bool)
	for _, rw := range rws {
		for ai, a := range rw.Body {
			job := byQName[a.Pred]
			if job == nil || ineligible[a.Pred] {
				continue
			}
			if len(a.Vars()) == 0 {
				// A constant-only atom reconstructs no rows: the whole
				// relation falls back to mirroring.
				ineligible[a.Pred] = true
				job.ship = nil
				continue
			}
			part := n.buildShipPart(rw, ai, rowBudget, degraded)
			if key := a.Pred + "\x00" + string(relation.EncodeSubPlan(part.sp)); !partSeen[key] {
				partSeen[key] = true
				if job.ship == nil {
					job.ship = &shipSpec{}
				}
				job.ship.parts = append(job.ship.parts, part)
			}
		}
	}
	if mode == ShipAuto {
		for i := range jobs {
			if job := &jobs[i]; job.ship != nil &&
				(job.rec.latest.Distinct == nil || !shipWorthIt(job.ship.parts, job.rec.latest)) {
				job.ship = nil
			}
		}
	}
}

// buildShipPart assembles the sub-plan for one remote atom of one
// rewriting: the atom with its qualification stripped (the serving
// peer names relations unqualified), plus, per variable, the smallest
// capped distinct-value binding any exactly-current relation of the
// same rewriting provides for it.
func (n *Network) buildShipPart(rw cq.Query, ai int, rowBudget uint64,
	degraded map[string]*DegradedPeer) shipPart {
	a := rw.Body[ai]
	_, rel := glav.SplitQualified(a.Pred)
	sp := relation.SubPlan{HeadVars: a.Vars(), RowBudget: rowBudget}
	wa := relation.SubPlanAtom{Pred: rel, Args: make([]relation.SubPlanTerm, len(a.Args))}
	for i, t := range a.Args {
		if t.IsVar {
			wa.Args[i] = relation.SubPlanTerm{IsVar: true, Var: t.Var}
		} else {
			wa.Args[i] = relation.SubPlanTerm{Const: t.Const}
		}
	}
	sp.Atoms = []relation.SubPlanAtom{wa}
	for _, v := range sp.HeadVars {
		if vals := n.bindingFor(rw, ai, v, degraded); vals != nil {
			sp.Bindings = append(sp.Bindings, relation.SubPlanBinding{Var: v, Values: vals})
		}
	}
	return shipPart{sp: sp, atom: a}
}

// bindingFor extracts the semi-join binding for one variable of a
// shipped atom: the smallest distinct value set any *other* atom of
// the same rewriting provides through an exactly-current relation
// (local peers, or remote replicas whose fingerprint matches the
// latest probe — never stale or degraded replicas, whose columns could
// wrongly exclude rows). nil when no source qualifies or every
// candidate set exceeds shipBindingCap. Values are sorted, so the
// sub-plan's encoding — and the differential digests built on it — is
// deterministic.
func (n *Network) bindingFor(rw cq.Query, ai int, v string,
	degraded map[string]*DegradedPeer) []relation.Value {
	var best []relation.Value
	for bi, b := range rw.Body {
		if bi == ai {
			continue
		}
		col := -1
		for j, t := range b.Args {
			if t.IsVar && t.Var == v {
				col = j
				break
			}
		}
		if col < 0 {
			continue
		}
		r := n.currentSource(b.Pred, degraded)
		if r == nil || col >= r.Schema.Arity() {
			continue
		}
		vals := distinctColumn(r, col, shipBindingCap)
		if vals == nil {
			continue
		}
		if best == nil || len(vals) < len(best) {
			best = vals
		}
	}
	return best
}

// currentSource resolves a qualified predicate to a relation whose
// current content is exact — a local peer's store, or a remote peer's
// working replica verified fresh by the latest probe. Stale, unfetched, or
// degraded remote replicas return nil: a binding built from them could
// exclude rows the serving peer actually holds. Caller holds
// n.remoteMu.
func (n *Network) currentSource(pred string, degraded map[string]*DegradedPeer) *relation.Relation {
	peer, rel := glav.SplitQualified(pred)
	if peer == "" {
		return nil
	}
	rp := n.remotes[peer]
	if rp == nil {
		p := n.peers[peer]
		if p == nil {
			return nil
		}
		return p.Store.Get(rel)
	}
	if degraded[peer] != nil {
		return nil
	}
	if rec := rp.rels[rel]; rec != nil && !rec.reported {
		return rec.replica // the remote serves no data for rel: its empty replica is current
	}
	if r, current := rp.replica(rel); current {
		return r
	}
	return nil
}

// distinctColumn returns the sorted distinct values of one column, or
// nil when their count exceeds cap (a binding that big is dropped, not
// truncated).
func distinctColumn(r *relation.Relation, col, cap_ int) []relation.Value {
	seen := make(map[relation.Value]struct{})
	var out []relation.Value
	for _, row := range r.Rows() {
		if _, dup := seen[row[col]]; !dup {
			if len(out) >= cap_ {
				return nil
			}
			seen[row[col]] = struct{}{}
			out = append(out, row[col])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return relation.Tuple{out[i]}.Less(relation.Tuple{out[j]})
	})
	return out
}

// shipWorthIt is the ShipAuto statistics model: ship when twice the
// estimated shipped volume — per part, the relation's rows scaled by
// each constant's and each forwarded binding's selectivity (using the
// per-column distinct estimates the State probe carries), plus the
// binding values themselves and a fixed per-part overhead — is still
// below the relation's row count, the cost of mirroring it.
func shipWorthIt(parts []shipPart, st relation.Stats) bool {
	rows := float64(st.Rows)
	if rows <= 0 {
		return false
	}
	total := 0.0
	for _, p := range parts {
		est := rows
		bindSize := make(map[string]int, len(p.sp.Bindings))
		bindTuples := 0
		for _, b := range p.sp.Bindings {
			bindSize[b.Var] = len(b.Values)
			bindTuples += len(b.Values)
		}
		counted := make(map[string]bool)
		for j, t := range p.sp.Atoms[0].Args {
			d := 1.0
			if j < len(st.Distinct) && st.Distinct[j] > 1 {
				d = st.Distinct[j]
			}
			if !t.IsVar {
				est /= d
			} else if k, ok := bindSize[t.Var]; ok && !counted[t.Var] {
				counted[t.Var] = true
				if f := float64(k) / d; f < 1 {
					est *= f
				}
			}
		}
		total += est + float64(bindTuples) + 64
	}
	return 2*total <= rows
}

// shipRung, the sync ladder's top rung, executes one relation's shipped
// sub-plans and reassembles the partial replica: per part, the returned
// head tuples fill the atom pattern back into full-width rows, the rows
// of every part are bulk-loaded into a fresh relation by one
// InsertBatch, so column statistics accrue for the planner, and the
// union across parts is deduplicated in place (the engine's answers are
// distinct per part, not across parts; Dedup re-encodes only when it
// dropped a row). Each part retries under the request's policy into a
// per-attempt buffer, so a dropped stream's partial tuples never leak
// into the replica. A refusal the serving side types as
// ErrPlanUnsupported — old server, uncompilable plan, row-budget
// overflow — declines, and the relation falls to the mirror rungs on the
// same connection; any other failure is the job's, like a failed scan.
func shipRung(ctx context.Context, rs *remoteSync, job *fetchJob) (*relation.Relation, bool, error) {
	// The overlay replica carries the qualified name the per-request
	// catalog resolves atoms by, as published snapshots do (working
	// replicas stay unqualified).
	schema := relation.Schema{Name: job.rec.name, Attrs: job.rec.replica.Schema.Attrs}
	var out []relation.Tuple
	for _, part := range job.ship.parts {
		headPos := make(map[string]int, len(part.sp.HeadVars))
		for i, v := range part.sp.HeadVars {
			headPos[v] = i
		}
		var rows []relation.Tuple
		err := rs.retry(ctx, func(actx context.Context) error {
			rows = rows[:0]
			return job.rp.tr.ExecPlan(actx, job.rp.name, part.sp, func(batch []relation.Tuple) error {
				for _, h := range batch {
					if len(h) != len(part.sp.HeadVars) {
						return fmt.Errorf("shipped answer arity %d, want %d", len(h), len(part.sp.HeadVars))
					}
					row := make(relation.Tuple, len(part.atom.Args))
					for i, t := range part.atom.Args {
						if t.IsVar {
							row[i] = h[headPos[t.Var]]
						} else {
							row[i] = t.Const
						}
					}
					rows = append(rows, row)
				}
				return nil
			})
		})
		if errors.Is(err, ErrPlanUnsupported) {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		out = append(out, rows...)
	}
	dst := relation.New(schema)
	if err := dst.InsertBatch(out); err != nil {
		return nil, false, err
	}
	return dst.Dedup(), true, nil
}
