package pdms

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// This file implements the data-placement side of §3.1.2: "Our ultimate
// goal is to materialize the best views at each peer to allow answering
// queries most efficiently, given network constraints." A simple cost
// model charges remote reads more than local ones; a greedy optimizer
// picks which remote relations each peer should replicate, and query
// execution can then read the local copies (kept fresh by updategrams).

// CostModel prices tuple reads.
type CostModel struct {
	// RemoteFactor is the cost of reading one remote tuple relative to a
	// local one (default 10).
	RemoteFactor float64
}

func (c CostModel) remote() float64 {
	if c.RemoteFactor <= 0 {
		return 10
	}
	return c.RemoteFactor
}

// WorkloadQuery is one recurring query in a peer's workload.
type WorkloadQuery struct {
	Peer  string
	Query cq.Query
	Freq  float64
}

// EstimateCost reformulates q at peer and prices the tuples its
// rewritings read: local relations (or local materialized copies) cost
// 1 per tuple, remote relations cost RemoteFactor per tuple.
func (n *Network) EstimateCost(peer string, q cq.Query, cm CostModel) (float64, error) {
	// Read-side operation: reformulation reads peer schemas and the
	// pricing walk reads stores, both of which a concurrent Query
	// prepare may be syncing for remote mirrors.
	if len(n.remotes) > 0 {
		n.remoteMu.RLock()
		defer n.remoteMu.RUnlock()
	}
	rf := NewReformulator(n, ReformOptions{})
	rws, _, err := rf.Reformulate(context.Background(), peer, q)
	if err != nil {
		return 0, err
	}
	copies := n.localCopies(peer)
	cost := 0.0
	for _, rw := range rws {
		for _, a := range rw.Body {
			pn, rel := glav.SplitQualified(a.Pred)
			owner := n.Peer(pn)
			if owner == nil {
				continue
			}
			rows := 0
			if r := owner.Store.Get(rel); r != nil {
				rows = r.Len()
			}
			if pn == peer || copies[a.Pred] != nil {
				cost += float64(rows)
			} else {
				cost += float64(rows) * cm.remote()
			}
		}
	}
	return cost, nil
}

// localCopies returns, per qualified relation name, an identity-view
// subscription hosted at the peer (if any). It reads the subscriptions
// under subMu; a caller holding remoteMu takes it second (lock order
// remoteMu → subMu).
func (n *Network) localCopies(peer string) map[string]*Subscription {
	out := make(map[string]*Subscription)
	n.subMu.Lock()
	defer n.subMu.Unlock()
	for _, sub := range n.subs {
		if sub.AtPeer != peer {
			continue
		}
		def := sub.MV.View.Def
		if len(def.Body) != 1 {
			continue
		}
		if len(def.HeadVars) != len(def.Body[0].Args) {
			continue
		}
		identity := true
		for i, arg := range def.Body[0].Args {
			if !arg.IsVar || arg.Var != def.HeadVars[i] {
				identity = false
				break
			}
		}
		if identity {
			out[def.Body[0].Pred] = sub
		}
	}
	return out
}

// MaterializeRemote places a full copy of srcPeer.rel at atPeer (an
// identity view kept fresh by updategrams).
func (n *Network) MaterializeRemote(atPeer, srcPeer, rel string) (*Subscription, error) {
	src := n.Peer(srcPeer)
	if src == nil {
		return nil, errUnknownPeer(srcPeer)
	}
	sch := src.Schema(rel)
	if sch.Name == "" {
		return nil, fmt.Errorf("pdms: peer %s has no relation %q", srcPeer, rel)
	}
	vars := make([]cq.Term, sch.Arity())
	head := make([]string, sch.Arity())
	for i := range vars {
		v := "C" + strconv.Itoa(i)
		vars[i] = cq.V(v)
		head[i] = v
	}
	def := cq.Query{HeadPred: "copy", HeadVars: head,
		Body: []cq.Atom{{Pred: glav.QualifiedName(srcPeer, rel), Args: vars}}}
	return n.Subscribe(atPeer, fmt.Sprintf("copy_%s_%s_at_%s", srcPeer, rel, atPeer), def)
}

// Placement is one chosen replication.
type Placement struct {
	AtPeer  string
	Source  string // qualified relation
	Benefit float64
}

// PlaceViews greedily chooses up to budget replications that most reduce
// the workload's estimated cost, materializes them, and returns the
// choices in decreasing benefit order.
func (n *Network) PlaceViews(workload []WorkloadQuery, budget int, cm CostModel) ([]Placement, error) {
	type key struct{ at, src string }
	benefit := make(map[key]float64)
	for _, wq := range workload {
		rf := NewReformulator(n, ReformOptions{})
		rws, _, err := rf.Reformulate(context.Background(), wq.Peer, wq.Query)
		if err != nil {
			return nil, err
		}
		for _, rw := range rws {
			for _, a := range rw.Body {
				pn, rel := glav.SplitQualified(a.Pred)
				if pn == wq.Peer {
					continue
				}
				owner := n.Peer(pn)
				if owner == nil {
					continue
				}
				rows := 0
				if r := owner.Store.Get(rel); r != nil {
					rows = r.Len()
				}
				benefit[key{wq.Peer, a.Pred}] += wq.Freq * float64(rows) * (cm.remote() - 1)
			}
		}
	}
	var cands []Placement
	for k, b := range benefit {
		cands = append(cands, Placement{AtPeer: k.at, Source: k.src, Benefit: b})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Benefit != cands[j].Benefit {
			return cands[i].Benefit > cands[j].Benefit
		}
		if cands[i].AtPeer != cands[j].AtPeer {
			return cands[i].AtPeer < cands[j].AtPeer
		}
		return cands[i].Source < cands[j].Source
	})
	if budget < len(cands) {
		cands = cands[:budget]
	}
	for _, p := range cands {
		srcPeer, rel := glav.SplitQualified(p.Source)
		if _, err := n.MaterializeRemote(p.AtPeer, srcPeer, rel); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// AnswerUsingCopies answers q at peer, reading local materialized copies
// instead of remote relations where available. Copies are kept fresh by
// Publish, so answers match Answer() as long as all updates flow through
// updategrams.
func (n *Network) AnswerUsingCopies(peer string, q cq.Query, opts ReformOptions) (*AnswerResult, error) {
	rf := NewReformulator(n, opts)
	rws, stats, err := rf.Reformulate(context.Background(), peer, q)
	if err != nil {
		return nil, err
	}
	copies := n.localCopies(peer)
	db := n.GlobalDB()
	// Register copy extents and rewrite atoms to read them.
	for qualified, sub := range copies {
		copyName := "@copy." + peer + "." + qualified
		ext := relation.New(relation.Schema{Name: copyName, Attrs: sub.MV.Extent.Schema.Attrs})
		for _, row := range sub.MV.Extent.Rows() {
			if err := ext.Insert(row); err != nil {
				return nil, err
			}
		}
		db.Put(ext)
	}
	rewritten := make([]cq.Query, len(rws))
	for i, rw := range rws {
		c := rw.Clone()
		for j := range c.Body {
			if _, ok := copies[c.Body[j].Pred]; ok {
				pn, _ := glav.SplitQualified(c.Body[j].Pred)
				if pn != peer {
					c.Body[j].Pred = "@copy." + peer + "." + c.Body[j].Pred
				}
			}
		}
		rewritten[i] = c
	}
	var answers *relation.Relation
	if len(rewritten) > 0 {
		answers, err = cq.EvalUnion(db, rewritten)
		if err != nil {
			return nil, err
		}
	} else {
		// Same typed head schema the non-empty path produces.
		answers = relation.New(cq.HeadSchemaFor(n.Peer(peer).Store, q))
	}
	return &AnswerResult{Answers: answers, Rewritings: rewritten, Stats: *stats}, nil
}
