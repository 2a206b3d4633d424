package pdms

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/view"
)

// chainNetwork builds Berkeley → MIT → Oxford, each with a course
// relation in its own vocabulary, with GAV mappings in both directions
// between adjacent peers (the paper's Fig. 2 arrows).
//
//	berkeley: course(title, size)
//	mit:      subject(name, enrollment)
//	oxford:   offering(label, seats)
func chainNetwork(t *testing.T) *Network {
	t.Helper()
	return chainNetworkOver(t, chainPeers(t)...)
}

// chainPeers returns berkeley, mit and oxford holding the chain's seed
// rows, in that order.
func chainPeers(t *testing.T) []*Peer {
	t.Helper()
	b := NewPeer("berkeley", relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
	m := NewPeer("mit", relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment")))
	o := NewPeer("oxford", relation.NewSchema("offering", relation.Attr("label"), relation.IntAttr("seats")))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.Insert("course", relation.Tuple{relation.SV("Ancient History"), relation.IV(40)}))
	must(b.Insert("course", relation.Tuple{relation.SV("Databases"), relation.IV(60)}))
	must(m.Insert("subject", relation.Tuple{relation.SV("AI"), relation.IV(80)}))
	must(o.Insert("offering", relation.Tuple{relation.SV("Greek Philosophy"), relation.IV(15)}))
	return []*Peer{b, m, o}
}

// chainNetworkOver joins the chain's peers, all in-process, into a new
// network and links them; a peer may belong to other networks too.
func chainNetworkOver(t *testing.T, peers ...*Peer) *Network {
	t.Helper()
	n := NewNetwork()
	for _, p := range peers {
		if err := n.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	linkChain(t, n)
	return n
}

// linkChain adds the chain's GAV mappings to a network holding (or
// mirroring) berkeley, mit and oxford.
func linkChain(t *testing.T, n *Network) {
	t.Helper()
	addGAV := func(id, srcPeer, srcQ, tgtPeer, tgtQ string) {
		t.Helper()
		mp := glav.MustNew(id, srcPeer, cq.MustParse(srcQ), tgtPeer, cq.MustParse(tgtQ))
		if !mp.IsGAV() {
			t.Fatalf("mapping %s should be GAV", id)
		}
		if err := n.AddMapping(mp); err != nil {
			t.Fatal(err)
		}
	}
	// Berkeley data visible at MIT and vice versa.
	addGAV("b2m", "berkeley", "m(T, S) :- course(T, S)", "mit", "m(T, S) :- subject(T, S)")
	addGAV("m2b", "mit", "m(T, S) :- subject(T, S)", "berkeley", "m(T, S) :- course(T, S)")
	// MIT ↔ Oxford.
	addGAV("m2o", "mit", "m(T, S) :- subject(T, S)", "oxford", "m(T, S) :- offering(T, S)")
	addGAV("o2m", "oxford", "m(T, S) :- offering(T, S)", "mit", "m(T, S) :- subject(T, S)")
}

func TestLocalAnswer(t *testing.T) {
	n := chainNetwork(t)
	r, err := n.LocalAnswer("berkeley", cq.MustParse("q(T) :- course(T, S)"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("local answers = %v", r.Rows())
	}
	if _, err := n.LocalAnswer("nope", cq.MustParse("q(T) :- course(T, S)")); err == nil {
		t.Error("unknown peer should fail")
	}
}

func TestTransitiveAnswer(t *testing.T) {
	n := chainNetwork(t)
	// Query at Oxford, in Oxford's vocabulary, should see all three
	// peers' courses through the mapping chain.
	res, err := n.Answer("oxford", cq.MustParse("q(L) :- offering(L, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 4 {
		t.Errorf("transitive answers = %v (rewritings %v)", res.Answers.Rows(), res.Rewritings)
	}
	if res.Stats.PeersTouched != 3 {
		t.Errorf("PeersTouched = %d, want 3", res.Stats.PeersTouched)
	}
	if res.Stats.Kept < 3 {
		t.Errorf("Kept = %d, want >= 3 (local + 2 remote)", res.Stats.Kept)
	}
}

func TestAnswerDepthBound(t *testing.T) {
	n := chainNetwork(t)
	// Depth 1 from Oxford reaches MIT but not Berkeley.
	res, err := n.Answer("oxford", cq.MustParse("q(L) :- offering(L, S)"), ReformOptions{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 2 {
		t.Errorf("depth-1 answers = %v", res.Answers.Rows())
	}
}

func TestAnswerQueryInLocalVocabularyWithConstant(t *testing.T) {
	n := chainNetwork(t)
	res, err := n.Answer("mit", cq.MustParse("q(S) :- subject('Databases', S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 1 || res.Answers.Row(0)[0] != relation.IV(60) {
		t.Errorf("answers = %v", res.Answers.Rows())
	}
}

func TestAnswerUnknownPeerAndRelation(t *testing.T) {
	n := chainNetwork(t)
	if _, err := n.Answer("nowhere", cq.MustParse("q(X) :- r(X)"), ReformOptions{}); err == nil {
		t.Error("unknown peer should fail")
	}
	if _, err := n.Answer("mit", cq.MustParse("q(T) :- course(T, S)"), ReformOptions{}); err == nil {
		t.Error("query outside peer schema should fail")
	}
}

func TestVisitedPruningPreventsCycles(t *testing.T) {
	n := chainNetwork(t)
	// The b↔m mappings form a cycle; with visited pruning the search
	// terminates and still finds all answers.
	res, err := n.Answer("berkeley", cq.MustParse("q(T) :- course(T, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 4 {
		t.Errorf("answers = %v", res.Answers.Rows())
	}
	if res.Stats.PrunedVisited == 0 {
		t.Error("expected some visited pruning on a cyclic graph")
	}
}

func TestNoPruningStillSoundWithSmallDepth(t *testing.T) {
	n := chainNetwork(t)
	with, err := n.Answer("mit", cq.MustParse("q(T) :- subject(T, S)"), ReformOptions{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	without, err := n.Answer("mit", cq.MustParse("q(T) :- subject(T, S)"),
		ReformOptions{MaxDepth: 3, NoVisitedPruning: true, NoContainmentPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Answers.Equal(without.Answers) {
		t.Errorf("pruning changed answers: %v vs %v", with.Answers.Rows(), without.Answers.Rows())
	}
	if without.Stats.Explored <= with.Stats.Explored {
		t.Errorf("pruning should reduce exploration: with=%d without=%d",
			with.Stats.Explored, without.Stats.Explored)
	}
}

func TestContainmentPruningReducesRewritings(t *testing.T) {
	n := chainNetwork(t)
	with, err := n.Answer("mit", cq.MustParse("q(T) :- subject(T, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := n.Answer("mit", cq.MustParse("q(T) :- subject(T, S)"),
		ReformOptions{NoContainmentPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats.Kept > without.Stats.Kept {
		t.Errorf("containment pruning increased rewritings: %d vs %d",
			with.Stats.Kept, without.Stats.Kept)
	}
	if !with.Answers.Equal(without.Answers) {
		t.Error("containment pruning changed answers")
	}
}

func TestJoinAcrossPeers(t *testing.T) {
	// A query with a join: MIT lists instructors separately.
	n := NewNetwork()
	uw := NewPeer("uw",
		relation.NewSchema("course", relation.Attr("title"), relation.Attr("instr")),
		relation.NewSchema("person", relation.Attr("name"), relation.Attr("email")))
	ro := NewPeer("rome",
		relation.NewSchema("corso", relation.Attr("titolo"), relation.Attr("docente")))
	if err := n.AddPeer(uw); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPeer(ro); err != nil {
		t.Fatal(err)
	}
	if err := uw.Insert("person", relation.Tuple{relation.SV("rossi"), relation.SV("rossi@roma.it")}); err != nil {
		t.Fatal(err)
	}
	if err := ro.Insert("corso", relation.Tuple{relation.SV("Storia"), relation.SV("rossi")}); err != nil {
		t.Fatal(err)
	}
	m := glav.MustNew("r2u", "rome", cq.MustParse("m(T, I) :- corso(T, I)"),
		"uw", cq.MustParse("m(T, I) :- course(T, I)"))
	if err := n.AddMapping(m); err != nil {
		t.Fatal(err)
	}
	res, err := n.Answer("uw", cq.MustParse("q(T, E) :- course(T, I), person(I, E)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 1 {
		t.Fatalf("answers = %v", res.Answers.Rows())
	}
	row := res.Answers.Row(0)
	if row[0] != relation.SV("Storia") || row[1] != relation.SV("rossi@roma.it") {
		t.Errorf("row = %v", row)
	}
}

func TestLAVMappingRewriting(t *testing.T) {
	// Source peer's stored relation is a view over target's schema:
	// archive.cs_course(T,S) ⊆ q(T,S) :- course(T,S,D), dept-constant.
	n := NewNetwork()
	hub := NewPeer("hub", relation.NewSchema("course",
		relation.Attr("title"), relation.IntAttr("size"), relation.Attr("dept")))
	arch := NewPeer("archive", relation.NewSchema("cs_course",
		relation.Attr("title"), relation.IntAttr("size")))
	if err := n.AddPeer(hub); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPeer(arch); err != nil {
		t.Fatal(err)
	}
	if err := arch.Insert("cs_course", relation.Tuple{relation.SV("Compilers"), relation.IV(25)}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Insert("course", relation.Tuple{relation.SV("Databases"), relation.IV(60), relation.SV("cs")}); err != nil {
		t.Fatal(err)
	}
	m := glav.MustNew("a2h", "archive", cq.MustParse("m(T, S) :- cs_course(T, S)"),
		"hub", cq.MustParse("m(T, S) :- course(T, S, D)"))
	if !m.IsLAV() {
		t.Fatal("mapping should be LAV")
	}
	if err := n.AddMapping(m); err != nil {
		t.Fatal(err)
	}
	res, err := n.Answer("hub", cq.MustParse("q(T, S) :- course(T, S, D)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 2 {
		t.Errorf("LAV answers = %v (rewritings %v)", res.Answers.Rows(), res.Rewritings)
	}
	// Ablation: disabling LAV loses the archived course.
	res2, err := n.Answer("hub", cq.MustParse("q(T, S) :- course(T, S, D)"), ReformOptions{NoLAV: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answers.Len() != 1 {
		t.Errorf("NoLAV answers = %v", res2.Answers.Rows())
	}
}

func TestNetworkValidation(t *testing.T) {
	n := NewNetwork()
	p := NewPeer("a", relation.NewSchema("r", relation.Attr("x")))
	if err := n.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPeer(NewPeer("a")); err == nil {
		t.Error("duplicate peer should fail")
	}
	if _, err := glav.New("self", "a", cq.MustParse("m(X) :- r(X)"), "a", cq.MustParse("m(X) :- r(X)")); err == nil {
		t.Error("self-mapping should fail")
	}
	b := NewPeer("b", relation.NewSchema("s", relation.Attr("y")))
	if err := n.AddPeer(b); err != nil {
		t.Fatal(err)
	}
	bad := glav.MustNew("bad", "a", cq.MustParse("m(X) :- nope(X)"), "b", cq.MustParse("m(X) :- s(X)"))
	if err := n.AddMapping(bad); err == nil {
		t.Error("mapping over unknown relation should fail")
	}
	bad2 := glav.MustNew("bad2", "a", cq.MustParse("m(X) :- r(X)"), "b", cq.MustParse("m(X) :- nope(X)"))
	if err := n.AddMapping(bad2); err == nil {
		t.Error("mapping over unknown target relation should fail")
	}
	badArity := glav.MustNew("bad3", "a", cq.MustParse("m(X, Y) :- r(X, Y)"),
		"b", cq.MustParse("m(X, Y) :- s(X, Y)"))
	if err := n.AddMapping(badArity); err == nil {
		t.Error("atom/relation arity mismatch should fail at registration")
	}
	if n.NumPeers() != 2 {
		t.Errorf("NumPeers = %d", n.NumPeers())
	}
}

func TestPeerBasics(t *testing.T) {
	p := NewPeer("x", relation.NewSchema("r", relation.Attr("a")))
	p.AddSchema(relation.NewSchema("s", relation.Attr("b")))
	if len(p.RelationNames()) != 2 {
		t.Errorf("RelationNames = %v", p.RelationNames())
	}
	if err := p.Insert("missing", relation.Tuple{relation.SV("v")}); err == nil {
		t.Error("insert into missing relation should fail")
	}
	if p.Schema("r").Name != "r" {
		t.Error("Schema lookup failed")
	}
}

func TestMappingDegreeLinear(t *testing.T) {
	n := chainNetwork(t)
	if n.NumMappings() != 4 {
		t.Errorf("NumMappings = %d", n.NumMappings())
	}
}

func TestSubscriptionAndPublish(t *testing.T) {
	n := chainNetwork(t)
	// Oxford materializes Berkeley's courses locally.
	sub, err := n.Subscribe("oxford", "berkeley_courses",
		cq.MustParse("v(T, S) :- berkeley.course(T, S)"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.MV.Extent.Len() != 2 {
		t.Fatalf("initial extent = %v", sub.MV.Extent.Rows())
	}
	stats, err := n.InsertAndPublish("berkeley", "course",
		relation.Tuple{relation.SV("Linear Algebra"), relation.IV(120)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ViewsTouched != 1 || stats.TuplesShipped != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if sub.MV.Extent.Len() != 3 {
		t.Errorf("extent after publish = %v", sub.MV.Extent.Rows())
	}
	// Unrelated update ships nothing.
	stats2, err := n.InsertAndPublish("mit", "subject",
		relation.Tuple{relation.SV("Robotics"), relation.IV(45)})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ViewsTouched != 0 || stats2.TuplesShipped != 0 {
		t.Errorf("unrelated publish stats = %+v", stats2)
	}
	// Deletes propagate too.
	_, err = n.Publish("berkeley", "course", view.Updategram{
		Relation: "course",
		Deletes:  []relation.Tuple{{relation.SV("Databases"), relation.IV(60)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sub.MV.Extent.Len() != 2 {
		t.Errorf("extent after delete = %v", sub.MV.Extent.Rows())
	}
}

func TestSubscribeValidation(t *testing.T) {
	n := chainNetwork(t)
	if _, err := n.Subscribe("nowhere", "v", cq.MustParse("v(T) :- berkeley.course(T, S)")); err == nil {
		t.Error("unknown host peer should fail")
	}
	if _, err := n.Subscribe("mit", "v", cq.MustParse("v(T) :- nowhere.rel(T)")); err == nil {
		t.Error("unknown base relation should fail")
	}
	if _, err := n.Publish("berkeley", "nope", view.Updategram{}); err == nil {
		t.Error("publish to unknown relation should fail")
	}
	if _, err := n.Publish("nowhere", "r", view.Updategram{}); err == nil {
		t.Error("publish at unknown peer should fail")
	}
	if len(n.subscriptions()) != 0 {
		t.Error("failed subscriptions must not register")
	}
}

func TestRemovePeer(t *testing.T) {
	n := chainNetwork(t)
	// Oxford materializes Berkeley's courses; MIT then leaves.
	if _, err := n.Subscribe("oxford", "bk",
		cq.MustParse("v(T, S) :- berkeley.course(T, S)")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Subscribe("mit", "hosted_at_mit",
		cq.MustParse("v(T, S) :- berkeley.course(T, S)")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Subscribe("oxford", "over_mit",
		cq.MustParse("v(T, S) :- mit.subject(T, S)")); err != nil {
		t.Fatal(err)
	}
	if err := n.RemovePeer("mit"); err != nil {
		t.Fatal(err)
	}
	if err := n.RemovePeer("mit"); err == nil {
		t.Error("double removal should fail")
	}
	if n.NumPeers() != 2 || n.NumMappings() != 0 {
		t.Errorf("peers=%d mappings=%d after removing the chain's middle", n.NumPeers(), n.NumMappings())
	}
	// Only the oxford-hosted subscription over berkeley survives.
	if len(n.subscriptions()) != 1 || n.subscriptions()[0].MV.View.Name != "bk" {
		t.Errorf("subscriptions = %v", n.subscriptions())
	}
	// Queries still answer locally (graceful degradation: the chain is
	// severed, remote data unreachable).
	res, err := n.Answer("oxford", cq.MustParse("q(L) :- offering(L, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 1 {
		t.Errorf("post-removal answers = %v", res.Answers.Rows())
	}
	// Berkeley unaffected locally.
	res2, err := n.Answer("berkeley", cq.MustParse("q(T) :- course(T, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answers.Len() != 2 {
		t.Errorf("berkeley answers = %v", res2.Answers.Rows())
	}
}

func TestRejoinAfterRemoval(t *testing.T) {
	n := chainNetwork(t)
	if err := n.RemovePeer("mit"); err != nil {
		t.Fatal(err)
	}
	// MIT rejoins with the same schema and remaps to Oxford only.
	m := NewPeer("mit", relation.NewSchema("subject",
		relation.Attr("name"), relation.IntAttr("enrollment")))
	if err := n.AddPeer(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("subject", relation.Tuple{relation.SV("Rebooted"), relation.IV(5)}); err != nil {
		t.Fatal(err)
	}
	mp := glav.MustNew("m2o2", "mit", cq.MustParse("m(T, S) :- subject(T, S)"),
		"oxford", cq.MustParse("m(T, S) :- offering(T, S)"))
	if err := n.AddMapping(mp); err != nil {
		t.Fatal(err)
	}
	res, err := n.Answer("oxford", cq.MustParse("q(L) :- offering(L, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Oxford's own + rejoined MIT's course (Berkeley unreachable: its
	// only links went through the old MIT mappings).
	if res.Answers.Len() != 2 {
		t.Errorf("answers after rejoin = %v", res.Answers.Rows())
	}
}

func TestGlobalDBQualification(t *testing.T) {
	n := chainNetwork(t)
	db := n.GlobalDB()
	if db.Get("berkeley.course") == nil || db.Get("mit.subject") == nil {
		t.Errorf("qualified relations missing: %v", db.Names())
	}
	if db.Get("berkeley.course").Len() != 2 {
		t.Errorf("berkeley.course rows = %d", db.Get("berkeley.course").Len())
	}
}

func TestMediatorPeer(t *testing.T) {
	// §3.1: "peers can serve as data providers, logical mediators, or
	// mere query nodes." The mediator stores nothing; two providers map
	// into its schema and it maps back out, so providers see each other
	// through it — a local data-integration system inside the PDMS.
	n := NewNetwork()
	mediator := NewPeer("mediator", relation.NewSchema("course",
		relation.Attr("title"), relation.Attr("instructor")))
	uw := NewPeer("uw", relation.NewSchema("klass",
		relation.Attr("name"), relation.Attr("teacher")))
	rome := NewPeer("rome", relation.NewSchema("corso",
		relation.Attr("titolo"), relation.Attr("docente")))
	for _, p := range []*Peer{mediator, uw, rome} {
		if err := n.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := uw.Insert("klass", relation.Tuple{relation.SV("Databases"), relation.SV("halevy")}); err != nil {
		t.Fatal(err)
	}
	if err := rome.Insert("corso", relation.Tuple{relation.SV("Storia"), relation.SV("rossi")}); err != nil {
		t.Fatal(err)
	}
	addBoth := func(id, provider, rel string) {
		t.Helper()
		in := glav.MustNew(id+"_in", provider,
			cq.MustParse("m(T, I) :- "+rel+"(T, I)"),
			"mediator", cq.MustParse("m(T, I) :- course(T, I)"))
		out := glav.MustNew(id+"_out", "mediator",
			cq.MustParse("m(T, I) :- course(T, I)"),
			provider, cq.MustParse("m(T, I) :- "+rel+"(T, I)"))
		if err := n.AddMapping(in); err != nil {
			t.Fatal(err)
		}
		if err := n.AddMapping(out); err != nil {
			t.Fatal(err)
		}
	}
	addBoth("uw", "uw", "klass")
	addBoth("rome", "rome", "corso")

	// The mediator (a pure query node: it stores nothing) sees both.
	res, err := n.Answer("mediator", cq.MustParse("q(T, I) :- course(T, I)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 2 {
		t.Errorf("mediator answers = %v", res.Answers.Rows())
	}
	// Each provider sees the other through the mediator.
	res2, err := n.Answer("uw", cq.MustParse("q(T) :- klass(T, I)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answers.Len() != 2 {
		t.Errorf("uw answers = %v", res2.Answers.Rows())
	}
	res3, err := n.Answer("rome", cq.MustParse("q(T) :- corso(T, I)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Answers.Len() != 2 {
		t.Errorf("rome answers = %v", res3.Answers.Rows())
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := chainNetwork(t)
	names := n.PeerNames()
	if len(names) != 3 || names[0] != "berkeley" {
		t.Errorf("PeerNames = %v", names)
	}
	if len(n.Mappings()) != 4 {
		t.Errorf("Mappings = %d", len(n.Mappings()))
	}
	err := &UnknownPeerError{Name: "x"}
	if err.Error() != "pdms: unknown peer x" {
		t.Errorf("Error = %q", err.Error())
	}
}

func TestMaxRewritingsCap(t *testing.T) {
	n := chainNetwork(t)
	res, err := n.Answer("mit", cq.MustParse("q(T) :- subject(T, S)"),
		ReformOptions{MaxRewritings: 1, NoContainmentPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Kept > 1 {
		t.Errorf("MaxRewritings ignored: kept %d", res.Stats.Kept)
	}
	// Capped search still yields at least the local answers.
	if res.Answers.Len() == 0 {
		t.Error("capped search lost all answers")
	}
}
