package pdms_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/workload"
)

// rewritingDigest accumulates the kept rewritings of a sequence of
// Reformulate calls: sha256 over each rewriting's String() plus "\n",
// and "--\n" after each call. Digests print as their first 8 bytes.
type rewritingDigest struct {
	sum      []byte
	explored int
	subsumed int
}

func (d *rewritingDigest) reformulate(t *testing.T, net *pdms.Network, peer string, q cq.Query, opts pdms.ReformOptions, norm func(string) string) {
	t.Helper()
	rws, stats, err := pdms.NewReformulator(net, opts).Reformulate(context.Background(), peer, q)
	if err != nil {
		t.Fatal(err)
	}
	d.explored += stats.Explored
	d.subsumed += stats.PrunedSubsumed
	for _, r := range rws {
		s := r.String()
		if norm != nil {
			s = norm(s)
		}
		d.sum = append(d.sum, s+"\n"...)
	}
	d.sum = append(d.sum, "--\n"...)
}

func (d *rewritingDigest) String() string {
	h := sha256.Sum256(d.sum)
	return hex.EncodeToString(h[:8])
}

// TestReformulateSkipsSubsumedSearches pins what the sub-search memo
// must not change — the kept rewritings, string for string and in
// order — and what it must: the number of expansion states visited.
// The digests were taken before the memo existed, when the same sweeps
// visited chain 4 480, star 606 920, tree 11 196 and random 3 264 502
// states, the bench chain's eight queries 13 312 and the existential
// fixture 2 035.
func TestReformulateSkipsSubsumedSearches(t *testing.T) {
	graphs := []struct {
		topo        workload.Topology
		digest      string
		maxExplored int
	}{
		{workload.Chain, "7f33fc70b548565f", 2000},
		{workload.Star, "98bd7f08d83bfd9e", 20000},
		{workload.Tree, "10459c845ee91b77", 3000},
		{workload.Random, "5cf368e838a2490e", 60000},
	}
	for _, gr := range graphs {
		t.Run(string(gr.topo), func(t *testing.T) {
			g, err := workload.GenNetwork(workload.NetworkSpec{Topology: gr.topo, Peers: 8, Seed: 42,
				RowsPerPeer: 5, ExtraEdgeProb: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			var d rewritingDigest
			for i := 0; i < 8; i++ {
				for _, depth := range []int{2, 5, 17} {
					d.reformulate(t, g.Net, workload.PeerName(i), g.TitleQuery(i), pdms.ReformOptions{MaxDepth: depth}, nil)
				}
			}
			if got := d.String(); got != gr.digest {
				t.Errorf("kept rewritings digest %s, want %s", got, gr.digest)
			}
			if d.explored > gr.maxExplored {
				t.Errorf("explored %d states, ceiling %d", d.explored, gr.maxExplored)
			}
			if d.subsumed == 0 {
				t.Error("no visit was skipped as subsumed")
			}
			t.Logf("explored %d, skipped %d as subsumed", d.explored, d.subsumed)
		})
	}

	// The bench/ chain: 16 peers, the title query at each of the eight
	// coordinator-local peers, depth 17.
	t.Run("bench-chain", func(t *testing.T) {
		g, err := workload.GenNetwork(workload.NetworkSpec{Topology: workload.Chain, Peers: 16, Seed: 42, RowsPerPeer: 5})
		if err != nil {
			t.Fatal(err)
		}
		var d rewritingDigest
		for i := 0; i < 8; i++ {
			d.reformulate(t, g.Net, workload.PeerName(i), g.TitleQuery(i), pdms.ReformOptions{MaxDepth: 17}, nil)
		}
		if got, want := d.String(), "cb7d913bc7c9f5d2"; got != want {
			t.Errorf("kept rewritings digest %s, want %s", got, want)
		}
		if d.explored > 3000 {
			t.Errorf("explored %d states, ceiling 3000", d.explored)
		}
		t.Logf("explored %d, skipped %d as subsumed", d.explored, d.subsumed)
	})

	// Mappings whose source side joins through a variable the target
	// does not expose: unfoldings mint fresh "_m<k>_" variables, and a
	// skipped visit mints none, so at depths 4 and 5 the names differ
	// from the memo-less search. The rewritings up to renaming, and the
	// answers, must not.
	t.Run("existential", func(t *testing.T) {
		net := existentialNetwork(t)
		var d rewritingDigest
		answers := sha256.New()
		q := cq.MustParse("q(T, N) :- listing(T, N), course(T, D)")
		for _, depth := range []int{3, 4, 5} {
			opts := pdms.ReformOptions{MaxDepth: depth}
			d.reformulate(t, net, "p1", q, opts, renameFresh)
			res, err := net.Answer("p1", q, opts)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(answers, workload.AnswerDigest(res.Answers), res.Answers.Len())
		}
		if got, want := d.String(), "0cbb47ece1c8be62"; got != want {
			t.Errorf("kept rewritings digest (fresh variables renamed) %s, want %s", got, want)
		}
		if got, want := hex.EncodeToString(answers.Sum(nil)[:8]), "c2dbd7c9759b46ee"; got != want {
			t.Errorf("answers digest %s, want %s", got, want)
		}
		if d.subsumed == 0 {
			t.Error("no visit was skipped as subsumed")
		}
		t.Logf("explored %d, skipped %d as subsumed", d.explored, d.subsumed)
	})
}

var freshVar = regexp.MustCompile(`_m[0-9]+_`)

// renameFresh renumbers the fresh-variable prefixes of one rendered
// rewriting by order of first appearance.
func renameFresh(s string) string {
	ids := map[string]string{}
	return freshVar.ReplaceAllStringFunc(s, func(p string) string {
		if _, ok := ids[p]; !ok {
			ids[p] = "_f" + strconv.Itoa(len(ids)) + "_"
		}
		return ids[p]
	})
}

// existentialNetwork is a four-peer chain. Each peer stores
// course(T, D), dept(D, N) and listing(T, N); course and dept map
// one to one between neighbours, and a neighbour's listing is the join
// of its course and dept, with the department D existential.
func existentialNetwork(t *testing.T) *pdms.Network {
	t.Helper()
	net := pdms.NewNetwork()
	const peers = 4
	for i := 0; i < peers; i++ {
		p := pdms.NewPeer(fmt.Sprintf("p%d", i),
			relation.NewSchema("course", relation.Attr("title"), relation.Attr("dept")),
			relation.NewSchema("dept", relation.Attr("dept"), relation.Attr("name")),
			relation.NewSchema("listing", relation.Attr("title"), relation.Attr("name")))
		for k := 0; k < 3; k++ {
			title, dep := relation.SV(fmt.Sprintf("t%d.%d", i, k)), relation.SV(fmt.Sprintf("d%d", (i+k)%3))
			for _, ins := range []struct {
				rel string
				row relation.Tuple
			}{
				{"course", relation.Tuple{title, dep}},
				{"dept", relation.Tuple{relation.SV(fmt.Sprintf("d%d", k)), relation.SV(fmt.Sprintf("n%d.%d", i, k))}},
				{"listing", relation.Tuple{relation.SV(fmt.Sprintf("l%d.%d", i, k)), relation.SV("direct")}},
			} {
				if err := p.Insert(ins.rel, ins.row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := net.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	add := func(src, tgt int, id, srcQ, tgtQ string) {
		t.Helper()
		m := glav.MustNew(fmt.Sprintf("%s%d%d", id, src, tgt), fmt.Sprintf("p%d", src), cq.MustParse(srcQ),
			fmt.Sprintf("p%d", tgt), cq.MustParse(tgtQ))
		if err := net.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < peers; i++ {
		for _, e := range [][2]int{{i, i + 1}, {i + 1, i}} {
			add(e[0], e[1], "c", "m(T, D) :- course(T, D)", "m(T, D) :- course(T, D)")
			add(e[0], e[1], "d", "m(D, N) :- dept(D, N)", "m(D, N) :- dept(D, N)")
			add(e[0], e[1], "l", "m(T, N) :- course(T, D), dept(D, N)", "m(T, N) :- listing(T, N)")
		}
	}
	return net
}

// TestReformulateKeepsRewritingsThatRenderAlike: the two-atom body
// p(K, 'a'), p(K, 'b') and the one-atom body whose constant spells out
// the rest of that text are different rewritings, and only the second
// has an answer. A key that joins rendered atoms without escaping
// called them duplicates and dropped whichever came second.
func TestReformulateKeepsRewritingsThatRenderAlike(t *testing.T) {
	net := pdms.NewNetwork()
	a := pdms.NewPeer("a", relation.NewSchema("r", relation.Attr("k")))
	b := pdms.NewPeer("b", relation.NewSchema("p", relation.Attr("k"), relation.Attr("v")))
	tricky := "a');b.p(K, 'b"
	if err := b.Insert("p", relation.Tuple{relation.SV("k1"), relation.SV(tricky)}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pdms.Peer{a, b} {
		if err := net.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	tgt := cq.MustParse("m(K) :- r(K)")
	for i, src := range []cq.Query{
		cq.MustParse("m(K) :- p(K, 'a'), p(K, 'b')"),
		cq.NewQuery("m", []string{"K"}, cq.NewAtom("p", cq.V("K"), cq.CS(tricky))),
	} {
		if err := net.AddMapping(glav.MustNew(fmt.Sprintf("b2a%d", i), "b", src, "a", tgt)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Answer("a", cq.MustParse("q(K) :- r(K)"), pdms.ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 1 || res.Stats.Kept != 3 {
		t.Errorf("answers %v from %d kept rewritings %v, want [k1] from 3",
			res.Answers.Rows(), res.Stats.Kept, res.Rewritings)
	}
}
