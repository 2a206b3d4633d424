package pdms

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/view"
)

// Subscription is a materialized view placed at a peer over the global
// (qualified) schema — the data-placement mechanism of §3.1.2: "our
// ultimate goal is to materialize the best views at each peer to allow
// answering queries most efficiently". Base updates reach it as
// updategrams.
type Subscription struct {
	// AtPeer hosts the materialization.
	AtPeer string
	// MV is the materialized view; its definition's predicates are
	// qualified stored-relation names.
	MV *view.MaterializedView
}

// Subscribe places a materialized view at a peer. The definition def must
// use qualified predicates ("peer.rel"); it is refreshed immediately.
func (n *Network) Subscribe(atPeer, name string, def cq.Query) (*Subscription, error) {
	if n.Peer(atPeer) == nil {
		return nil, errUnknownPeer(atPeer)
	}
	for _, pred := range def.Predicates() {
		pn, rel := glav.SplitQualified(pred)
		p := n.Peer(pn)
		if p == nil || !p.HasRelation(rel) {
			return nil, fmt.Errorf("pdms: subscription %s references unknown %q", name, pred)
		}
	}
	mv := view.NewMaterialized(view.NewView(name, def))
	if err := mv.Refresh(n.GlobalDB()); err != nil {
		return nil, err
	}
	sub := &Subscription{AtPeer: atPeer, MV: mv}
	n.subMu.Lock()
	n.subs = append(n.subs, sub)
	n.subMu.Unlock()
	return sub, nil
}

// Subscriptions returns all placed views: a copy taken under subMu, so
// a concurrent Subscribe or RemovePeer never changes what it returned.
func (n *Network) Subscriptions() []*Subscription {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	return slices.Clone(n.subs)
}

// PublishStats reports update-propagation work.
type PublishStats struct {
	// ViewsTouched counts subscriptions whose definitions mention the
	// updated relation.
	ViewsTouched int
	// TuplesShipped counts delta tuples sent to subscribers.
	TuplesShipped int
}

// Publish commits an updategram to a peer's stored relation through the
// peer's one commit path (see Peer.Insert): the batch is checked whole,
// its deletes and then its inserts are applied under the serving lock,
// logged on a durable peer and pushed to feed subscribers, and the
// committed changes propagate as incremental view updategrams into every
// affected subscription — on every network the peer joined, which the
// returned stats count. "Updategrams on base data can be combined to
// create updategrams for views."
func (n *Network) Publish(peer, rel string, u view.Updategram) (*PublishStats, error) {
	p := n.Peer(peer)
	if p == nil {
		return nil, errUnknownPeer(peer)
	}
	stats := &PublishStats{}
	if _, err := p.commit(rel, u.Deletes, u.Inserts, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// UpdateThroughView commits an update expressed against a view — the
// paper's "updating of data through views" (§3.1.2). Like a Subscribe
// definition, v names qualified stored relations ("peer.rel").
// view.TranslateUpdate turns u into a base updategram over the global
// snapshot, refusing up front a translation that is ambiguous or would
// change other view tuples, and Publish commits it at the relation's
// peer — checked whole, logged, pushed and folded into the placed views
// like every other write.
func (n *Network) UpdateThroughView(v view.View, u view.Updategram) (*PublishStats, error) {
	bases, err := view.TranslateUpdate(v, n.GlobalDB(), u)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 { // the update changes nothing
		return &PublishStats{}, nil
	}
	// A select/project view has one base relation, so one updategram.
	peer, rel := glav.SplitQualified(bases[0].Relation)
	return n.Publish(peer, rel, bases[0])
}

// viewsOver reports whether a placed view's definition mentions peer's
// rel — whether a commit there has views to maintain. It builds no
// qualified name, so a commit on a network without such views costs one
// uncontended lock and a scan of the view definitions.
func (n *Network) viewsOver(peer, rel string) bool {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	return slices.ContainsFunc(n.subs, func(sub *Subscription) bool {
		return slices.ContainsFunc(sub.MV.View.Def.Body, func(a cq.Atom) bool { return qualifiedAs(a.Pred, peer, rel) })
	})
}

// maintainViews is the one place committed change records become a view
// updategram: one relation's records (qualified is its "peer.rel" name)
// fold, in commit order, into a base updategram that propagates into
// every placed view over the relation between the pre and post states.
// The commit path (the in-process single writer) and the push applier
// (its own goroutine) both call it, so the extents are guarded by
// subMu. stats may be nil.
func (n *Network) maintainViews(pre, post *relation.Database, qualified string, recs []relation.ChangeRecord, stats *PublishStats) {
	u := view.Updategram{Relation: qualified}
	for _, rec := range recs {
		switch rec.Op {
		case relation.ChangeInsert:
			u.Inserts = append(u.Inserts, rec.Tuple)
		case relation.ChangeDelete:
			u.Deletes = append(u.Deletes, rec.Tuple)
		}
	}
	if stats == nil {
		stats = &PublishStats{}
	}
	n.subMu.Lock()
	defer n.subMu.Unlock()
	if err := n.fanoutViews(pre, post, u, stats); err != nil {
		// Full re-derivation is the fallback truth. A view whose refresh
		// fails keeps its old extent; the next propagation retries.
		for _, sub := range n.subs {
			_ = sub.MV.Refresh(post)
		}
	}
}

// fanoutViews propagates one qualified base updategram into every
// placed materialized view whose definition mentions the relation —
// the one-to-many half of §3.1.2's "updategrams on base data can be
// combined to create updategrams for views". The prepared update (the
// delta relation installed over the pre and post states) is shared by
// every affected subscription — built lazily on the first one instead
// of rebuilt per view. The caller holds subMu.
func (n *Network) fanoutViews(pre, post *relation.Database, qu view.Updategram, stats *PublishStats) error {
	var prepared *view.PreparedUpdate
	for _, sub := range n.subs {
		if !slices.ContainsFunc(sub.MV.View.Def.Body, func(a cq.Atom) bool { return a.Pred == qu.Relation }) {
			continue
		}
		stats.ViewsTouched++
		if prepared == nil {
			var err error
			if prepared, err = view.PrepareUpdate(pre, post, qu); err != nil {
				return err
			}
		}
		delta, err := sub.MV.DeltaFrom(prepared)
		if err != nil {
			return err
		}
		stats.TuplesShipped += delta.Size()
		if err := sub.MV.ApplyDelta(delta); err != nil {
			return err
		}
	}
	return nil
}

// ViewExtent returns a race-free snapshot (clone) of a placed view's
// current extent. The push applier maintains extents from its own
// goroutine, so direct Extent reads while a subscription is live would
// race; this accessor takes the same lock the applier holds.
func (n *Network) ViewExtent(sub *Subscription) *relation.Relation {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	if sub.MV.Extent == nil {
		return nil
	}
	return sub.MV.Extent.Clone()
}

// InsertAndPublish is a convenience wrapper publishing a single insert.
func (n *Network) InsertAndPublish(peer, rel string, t relation.Tuple) (*PublishStats, error) {
	return n.Publish(peer, rel, view.Updategram{Relation: rel, Inserts: []relation.Tuple{t}})
}
