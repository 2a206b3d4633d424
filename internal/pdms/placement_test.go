package pdms

import (
	"context"
	"fmt"
	"sync"
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

// TestAnswerUsingCopiesLeavesGlobalDBAlone holds AnswerUsingCopies to
// a read: the cached GlobalDB snapshot every query shares keeps its
// relations and its statistics version, and copies queries running
// beside plain Answer calls neither race on it nor change an answer.
func TestAnswerUsingCopiesLeavesGlobalDBAlone(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	for _, src := range [][2]string{{"berkeley", "course"}, {"mit", "subject"}} {
		if _, err := n.MaterializeRemote("oxford", src[0], src[1]); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := n.Answer("oxford", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := n.GlobalDB()
	names, version := fmt.Sprint(db.Names()), db.StatsVersion()
	if _, err := n.AnswerUsingCopies("oxford", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(n.GlobalDB().Names()); got != names {
		t.Errorf("GlobalDB after a copies query holds %s, before %s", got, names)
	}
	if got := n.GlobalDB().StatsVersion(); got != version {
		t.Errorf("GlobalDB statistics version moved %d -> %d", version, got)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(copies bool) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				answer := n.Answer
				if copies {
					answer = n.AnswerUsingCopies
				}
				res, err := answer("oxford", q, ReformOptions{})
				if err == nil && !res.Answers.Equal(direct.Answers) {
					err = fmt.Errorf("copies=%v answered %v, want %v", copies, res.Answers.Rows(), direct.Answers.Rows())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
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

// TestAnswerUsingCopiesOverRemotePeers holds AnswerUsingCopies to
// Answer on a coordinator whose berkeley and mit are RemotePeers behind
// a Loopback: a copies query syncs the replicas as any query does, and a
// placed copy of a remote relation follows every replica the sync
// ladder installs, not only the ones the push applier advances.
func TestAnswerUsingCopiesOverRemotePeers(t *testing.T) {
	peers := chainPeers(t)
	n := NewNetwork()
	if err := n.AddPeer(peers[2]); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback(peers[0], peers[1])
	for _, name := range []string{"berkeley", "mit"} {
		if _, err := n.AddRemotePeer(context.Background(), name, lb); err != nil {
			t.Fatal(err)
		}
	}
	linkChain(t, n)
	q := cq.MustParse("q(L) :- offering(L, S)")
	same := func(when string, rows int, copied bool) {
		t.Helper()
		via, err := n.AnswerUsingCopies("oxford", q, ReformOptions{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := n.Answer("oxford", q, ReformOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if direct.Answers.Len() != rows {
			t.Fatalf("%s: Answer gave %d rows, want %d", when, direct.Answers.Len(), rows)
		}
		if !direct.Answers.Equal(via.Answers) {
			t.Errorf("%s: AnswerUsingCopies answered %v, Answer %v",
				when, via.Answers.Rows(), direct.Answers.Rows())
		}
		read := false
		for _, rw := range via.Rewritings {
			for _, a := range rw.Body {
				read = read || a.Pred == "@copy.oxford.berkeley.course"
			}
		}
		if read != copied {
			t.Errorf("%s: rewritings read the copy = %v, want %v", when, read, copied)
		}
	}
	insert := func(title string) {
		t.Helper()
		if err := peers[0].Insert("course", relation.Tuple{relation.SV(title), relation.IV(25)}); err != nil {
			t.Fatal(err)
		}
	}
	same("first call, nothing synced", 4, false)
	insert("Rhetoric")
	same("after an origin insert", 5, false)
	if _, err := n.MaterializeRemote("oxford", "berkeley", "course"); err != nil {
		t.Fatal(err)
	}
	insert("Logic")
	same("copy placed, after an origin insert", 6, true)
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
// ranges over the list) and subscriptions; RemovePeer, which compacts
// the list in place, races subscriptions. RemovePeer is kept away from
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
				for _, sub := range n.subscriptions() {
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
	if got := len(n.subscriptions()); got != hosts {
		t.Fatalf("%d subscriptions left, want the %d oxford copies", got, hosts)
	}
}
