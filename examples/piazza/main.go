// Piazza operations: the distributed-systems side of §3.1.2 — peers
// join, views are placed where the workload needs them, updategrams keep
// copies fresh, updates flow through views, and a peer leaves without
// taking the network down.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cq"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/view"
	"repro/internal/workload"
)

func main() {
	g, err := workload.GenNetwork(workload.NetworkSpec{
		Topology: workload.Star, Peers: 5, Seed: 11, RowsPerPeer: 12})
	if err != nil {
		log.Fatal(err)
	}
	net := g.Net
	fmt.Printf("star network: %d peers, %d mappings\n", net.NumPeers(), net.NumMappings())

	// A leaf peer runs the same query repeatedly; the optimizer places
	// copies of the remote relations it reads.
	q := g.TitleQuery(1)
	cm := pdms.CostModel{RemoteFactor: 10}
	before, err := net.EstimateCost(workload.PeerName(1), q, cm)
	if err != nil {
		log.Fatal(err)
	}
	placements, err := net.PlaceViews(
		[]pdms.WorkloadQuery{{Peer: workload.PeerName(1), Query: q, Freq: 20}}, 3, cm)
	if err != nil {
		log.Fatal(err)
	}
	after, err := net.EstimateCost(workload.PeerName(1), q, cm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nview placement: estimated cost %.0f → %.0f\n", before, after)
	for _, p := range placements {
		fmt.Printf("  placed copy of %-18s at %s (benefit %.0f)\n", p.Source, p.AtPeer, p.Benefit)
	}

	// Updates propagate as updategrams; local copies stay fresh.
	hub := g.Specs[0]
	row := make(relation.Tuple, hub.Schema.Arity())
	for i := range row {
		row[i] = relation.SV(fmt.Sprintf("new-%d", i))
	}
	stats, err := net.Publish(workload.PeerName(0), hub.Schema.Name,
		view.Updategram{Relation: hub.Schema.Name, Inserts: []relation.Tuple{row}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npublish at hub: %d views touched, %d delta tuples shipped\n",
		stats.ViewsTouched, stats.TuplesShipped)
	res, err := net.AnswerUsingCopies(workload.PeerName(1), q, pdms.ReformOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answers via local copies: %d (oracle %d)\n",
		res.Answers.Len(), len(g.AllTitles)+1)

	// Update through a view: delete a hub course through a selection
	// view over its qualified relation. The delete commits at the hub
	// like any other write, so the copy placed above follows it.
	fmt.Println("\nupdate through a view:")
	titleAttr := g.TitleAttr[0]
	col := hub.Schema.AttrIndex(titleAttr)
	victim := net.Peer(workload.PeerName(0)).Store.Get(hub.Schema.Name).Row(0).Clone()
	vars := make([]cq.Term, hub.Schema.Arity())
	head := make([]string, hub.Schema.Arity())
	for i := range vars {
		v := fmt.Sprintf("V%d", i)
		vars[i] = cq.V(v)
		head[i] = v
	}
	hubRel := workload.PeerName(0) + "." + hub.Schema.Name
	allView := view.NewView("hub_courses", cq.Query{HeadPred: "v", HeadVars: head,
		Body: []cq.Atom{{Pred: hubRel, Args: vars}}})
	stats, err = net.UpdateThroughView(allView, view.Updategram{
		Relation: "hub_courses", Deletes: []relation.Tuple{victim}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  deleted %q through view %s: %d views touched\n",
		victim[col], allView.Name, stats.ViewsTouched)

	// A peer leaves; the rest keeps answering — streamed through a
	// cursor, so answers arrive as the union's join trees produce them.
	if err := net.RemovePeer(workload.PeerName(4)); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	cur, err := net.Query(ctx, pdms.Request{Peer: workload.PeerName(1), Query: q})
	if err != nil {
		log.Fatal(err)
	}
	answers := 0
	for cur.Next() {
		answers++
	}
	if err := cur.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter %s left: %d peers remain, query still yields %d answers\n",
		workload.PeerName(4), net.NumPeers(), answers)

	// Existence check: Limit=1 stops the whole union after the first
	// distinct answer instead of materializing everything.
	exist, err := net.Query(ctx, pdms.Request{
		Peer: workload.PeerName(1), Query: q, Limit: 1})
	if err != nil {
		log.Fatal(err)
	}
	found := exist.Next()
	exist.Close()
	fmt.Printf("any answer at all? %v (stopped after the first, %s exec)\n",
		found, exist.ExecTime())
}
