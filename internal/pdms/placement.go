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
// execution can then read the local copies (kept fresh by updategrams)
// through Network.Query, whose reformulation cache prices them too.

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
// 1 per tuple, remote relations cost RemoteFactor per tuple. Row counts
// come from GlobalDB, so pricing takes no lock.
func (n *Network) EstimateCost(peer string, q cq.Query, cm CostModel) (float64, error) {
	rws, err := n.rewritings(peer, q)
	if err != nil {
		return 0, err
	}
	copies := n.localCopies(peer)
	db := n.GlobalDB()
	cost := 0.0
	for _, rw := range rws {
		for _, a := range rw.Body {
			r := db.Get(a.Pred)
			if r == nil {
				continue
			}
			if pn, _ := glav.SplitQualified(a.Pred); pn == peer || copies[a.Pred] != nil {
				cost += float64(r.Len())
			} else {
				cost += float64(r.Len()) * cm.remote()
			}
		}
	}
	return cost, nil
}

// rewritings returns q's reformulations at peer, from the cache Query
// serves from (reformulateOnce). Callers only read the shared slice.
func (n *Network) rewritings(peer string, q cq.Query) ([]cq.Query, error) {
	e, err := n.reformulateOnce(context.Background(), n.reformCacheKey(peer, q, ReformOptions{}), Request{Peer: peer, Query: q})
	if err != nil {
		return nil, err
	}
	return e.rws, nil
}

// localCopies returns, per qualified relation name, an identity-view
// subscription hosted at the peer (if any). It reads the subscriptions
// under subMu.
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
	schemas, ok := n.schemasOf(srcPeer)
	if !ok {
		return nil, errUnknownPeer(srcPeer)
	}
	sch, ok := schemas[rel]
	if !ok {
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
	db := n.GlobalDB()
	for _, wq := range workload {
		rws, err := n.rewritings(wq.Peer, wq.Query)
		if err != nil {
			return nil, err
		}
		for _, rw := range rws {
			for _, a := range rw.Body {
				pn, _ := glav.SplitQualified(a.Pred)
				r := db.Get(a.Pred)
				if pn == wq.Peer || r == nil {
					continue
				}
				benefit[key{wq.Peer, a.Pred}] += wq.Freq * float64(r.Len()) * (cm.remote() - 1)
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

// AnswerUsingCopies is Answer reading the peer's local materialized
// copies instead of the remote relations they copy: each such rewriting
// atom is renamed to the copy's "@copy.<peer>.<relation>" name. Copies
// are kept fresh by Publish, the push applier and the sync ladder, so
// answers match Answer().
func (n *Network) AnswerUsingCopies(peer string, q cq.Query, opts ReformOptions) (*AnswerResult, error) {
	return n.answer(peer, q, opts, n.localCopies(peer))
}

// readCopies returns clones of rws with every atom over a remote
// relation in copies renamed to its copy, and over (allocated if nil)
// grown by a snapshot of each renamed copy's extent, taken under subMu
// because a refresh replaces MV.Extent.
func (n *Network) readCopies(peer string, rws []cq.Query, copies map[string]*Subscription, over map[string]*relation.Relation) ([]cq.Query, map[string]*relation.Relation) {
	if over == nil {
		over = make(map[string]*relation.Relation)
	}
	out := make([]cq.Query, len(rws))
	n.subMu.Lock()
	defer n.subMu.Unlock()
	for i, rw := range rws {
		out[i] = rw.Clone()
		for j, a := range out[i].Body {
			sub := copies[a.Pred]
			if pn, _ := glav.SplitQualified(a.Pred); sub == nil || pn == peer {
				continue
			}
			name := "@copy." + peer + "." + a.Pred
			out[i].Body[j].Pred = name
			if over[name] == nil {
				over[name] = sub.MV.Extent.SnapshotAs(name)
			}
		}
	}
	return out, over
}
