package pdms

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/relation"
)

func TestEstimateCostAndPlacement(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	cm := CostModel{RemoteFactor: 10}
	before, err := n.EstimateCost("oxford", q, cm)
	if err != nil {
		t.Fatal(err)
	}
	workload := []WorkloadQuery{{Peer: "oxford", Query: q, Freq: 5}}
	placements, err := n.PlaceViews(workload, 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 2 {
		t.Fatalf("placements = %v", placements)
	}
	for _, p := range placements {
		if p.AtPeer != "oxford" || p.Benefit <= 0 {
			t.Errorf("placement = %+v", p)
		}
	}
	// Berkeley has 2 rows, MIT 1: berkeley copy should rank first.
	if placements[0].Source != "berkeley.course" {
		t.Errorf("top placement = %+v", placements[0])
	}
	after, err := n.EstimateCost("oxford", q, cm)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("placement did not reduce cost: %v -> %v", before, after)
	}
}

func TestAnswerUsingCopiesMatchesAnswer(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	if _, err := n.MaterializeRemote("oxford", "berkeley", "course"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaterializeRemote("oxford", "mit", "subject"); err != nil {
		t.Fatal(err)
	}
	direct, err := n.Answer("oxford", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaCopies, err := n.AnswerUsingCopies("oxford", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Answers.Equal(viaCopies.Answers) {
		t.Errorf("copies changed answers: %v vs %v",
			direct.Answers.Rows(), viaCopies.Answers.Rows())
	}
	// Every rewriting that touched a remote copied relation now reads
	// the local copy.
	foundCopy := false
	for _, rw := range viaCopies.Rewritings {
		for _, a := range rw.Body {
			if len(a.Pred) > 6 && a.Pred[:6] == "@copy." {
				foundCopy = true
			}
		}
	}
	if !foundCopy {
		t.Error("no rewriting used a local copy")
	}
}

func TestCopiesStayFreshThroughPublish(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	if _, err := n.MaterializeRemote("oxford", "berkeley", "course"); err != nil {
		t.Fatal(err)
	}
	// Update through the updategram path: copies follow.
	if _, err := n.InsertAndPublish("berkeley", "course",
		relation.Tuple{relation.SV("Rhetoric"), relation.IV(25)}); err != nil {
		t.Fatal(err)
	}
	direct, err := n.Answer("oxford", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaCopies, err := n.AnswerUsingCopies("oxford", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Answers.Equal(viaCopies.Answers) {
		t.Errorf("copy went stale after publish: %v vs %v",
			direct.Answers.Rows(), viaCopies.Answers.Rows())
	}
	// A plain Peer.Insert is the same commit, so the copy follows it too:
	// there is no write that bypasses the updategram path.
	if err := n.Peer("berkeley").Insert("course",
		relation.Tuple{relation.SV("Smuggled"), relation.IV(1)}); err != nil {
		t.Fatal(err)
	}
	direct2, _ := n.Answer("oxford", q, ReformOptions{})
	via2, _ := n.AnswerUsingCopies("oxford", q, ReformOptions{})
	if !direct2.Answers.Equal(via2.Answers) {
		t.Errorf("copy went stale after Peer.Insert: %v vs %v",
			direct2.Answers.Rows(), via2.Answers.Rows())
	}
}

func TestMaterializeRemoteValidation(t *testing.T) {
	n := chainNetwork(t)
	if _, err := n.MaterializeRemote("oxford", "ghost", "r"); err == nil {
		t.Error("unknown source peer should fail")
	}
	if _, err := n.MaterializeRemote("oxford", "berkeley", "nope"); err == nil {
		t.Error("unknown relation should fail")
	}
}

func TestLocalCopiesIgnoresNonIdentityViews(t *testing.T) {
	n := chainNetwork(t)
	// A projection view is not a full copy.
	if _, err := n.Subscribe("oxford", "proj",
		cq.MustParse("v(T) :- berkeley.course(T, S)")); err != nil {
		t.Fatal(err)
	}
	if got := n.localCopies("oxford"); len(got) != 0 {
		t.Errorf("projection counted as copy: %v", got)
	}
	if _, err := n.MaterializeRemote("oxford", "berkeley", "course"); err != nil {
		t.Fatal(err)
	}
	if got := n.localCopies("oxford"); len(got) != 1 {
		t.Errorf("copies = %v", got)
	}
	// Hosted elsewhere: not a local copy for oxford.
	if got := n.localCopies("mit"); len(got) != 0 {
		t.Errorf("mit copies = %v", got)
	}
}

func TestPlacementBudget(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	placements, err := n.PlaceViews([]WorkloadQuery{{Peer: "oxford", Query: q, Freq: 1}}, 1, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 1 {
		t.Errorf("budget ignored: %v", placements)
	}
}

// TestSubscriptionsReadUnderSubMu runs the subscription list's writers
// against its readers; under -race it fails if either reader touches
// n.subs without subMu. Subscribe races EstimateCost (whose localCopies
// ranges over the list) and Subscriptions; RemovePeer, which compacts
// the list in place, races Subscriptions. RemovePeer is kept away from
// EstimateCost: it also rewrites the peer and mapping tables, a topology
// change the single-writer contract orders against every query.
func TestSubscriptionsReadUnderSubMu(t *testing.T) {
	n := chainNetwork(t)
	const hosts = 16
	for i := 0; i < hosts; i++ {
		if err := n.AddPeer(NewPeer(fmt.Sprintf("host%d", i), relation.NewSchema("h", relation.Attr("x")))); err != nil {
			t.Fatal(err)
		}
	}
	q := cq.MustParse("q(L) :- offering(L, S)")
	read := func(stop <-chan struct{}, estimate bool) <-chan error {
		errc := make(chan error, 1)
		go func() {
			defer close(errc)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sub := range n.Subscriptions() {
					if sub.AtPeer == "" {
						errc <- fmt.Errorf("subscription without a host")
						return
					}
				}
				if estimate {
					if _, err := n.EstimateCost("oxford", q, CostModel{}); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
		return errc
	}
	stop := make(chan struct{})
	errc := read(stop, true)
	for i := 0; i < hosts; i++ {
		if _, err := n.Subscribe(fmt.Sprintf("host%d", i), fmt.Sprintf("copy%d", i),
			cq.MustParse("v(T, S) :- berkeley.course(T, S)")); err != nil {
			t.Fatal(err)
		}
		if _, err := n.MaterializeRemote("oxford", "berkeley", "course"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	stop = make(chan struct{})
	errc = read(stop, false)
	for i := 0; i < hosts; i++ {
		if err := n.RemovePeer(fmt.Sprintf("host%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := len(n.Subscriptions()); got != hosts {
		t.Fatalf("%d subscriptions left, want the %d oxford copies", got, hosts)
	}
}
