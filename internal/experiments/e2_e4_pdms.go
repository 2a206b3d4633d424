package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pdms"
	"repro/internal/strutil"
	"repro/internal/workload"
)

// E2Transitive reproduces the Figure-2 property: any peer reaches any
// other peer's data through the transitive closure of mappings. For each
// topology it reports, per reformulation depth, the recall of a
// title query at peer 0 against the oracle union of all peers' titles.
// Answers are counted by draining a streaming cursor — nothing is
// materialized — and ctx cancels the whole sweep (reformulation and
// execution alike) between expansion states and candidate rows.
func E2Transitive(ctx context.Context, seed int64, peers int) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  fmt.Sprintf("Answer completeness vs reformulation depth (%d peers)", peers),
		Header: []string{"topology", "depth", "answers", "oracle", "recall"},
		Notes: []string{
			"recall 1.0 at depth >= graph eccentricity of peer0 reproduces Fig. 2's transitive reachability",
		},
	}
	for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Tree, workload.Random} {
		g, err := workload.GenNetwork(workload.NetworkSpec{
			Topology: topo, Peers: peers, Seed: seed, RowsPerPeer: 5, ExtraEdgeProb: 0.15})
		if err != nil {
			return nil, err
		}
		maxDist := 0
		for _, d := range g.Distance(0) {
			if d > maxDist {
				maxDist = d
			}
		}
		for depth := 1; depth <= maxDist+1; depth++ {
			cur, err := g.Net.Query(ctx, pdms.Request{
				Peer:   workload.PeerName(0),
				Query:  g.TitleQuery(0),
				Reform: pdms.ReformOptions{MaxDepth: depth},
			})
			if err != nil {
				return nil, err
			}
			answers := 0
			for cur.Next() {
				answers++
			}
			if err := cur.Close(); err != nil {
				return nil, err
			}
			recall := float64(answers) / float64(len(g.AllTitles))
			t.AddRow(string(topo), depth, answers, len(g.AllTitles), recall)
		}
	}
	return t, nil
}

// E3MappingEffort reproduces §3's argument against the mediated schema.
// Both systems need a linear number of mappings, but the PDMS lets the
// k-th joining university map to "the schema most similar to theirs
// (e.g., Trento maps to Rome)", while a mediated schema forces it to
// align against one fixed foreign vocabulary. Alignment cost for a pair
// of schemas is the total name-dissimilarity a human must bridge:
// Σ (1 − NameSimilarity) over the newcomer's attributes and their
// counterparts. Lower is easier.
func E3MappingEffort(seed int64, maxPeers int) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Mapping effort: PDMS (map to most-similar peer) vs mediated schema",
		Header: []string{"peers", "pdms_mappings", "mediated_mappings", "pdms_align_cost", "mediated_align_cost"},
		Notes: []string{
			"align_cost = sum of (1 - name similarity) the newcomer must bridge",
			"PDMS newcomers pick the most similar existing peer; mediated newcomers face the fixed global schema",
		},
	}
	d, _ := workload.DomainByName("courses")
	for k := 2; k <= maxPeers; k *= 2 {
		g, err := workload.GenNetwork(workload.NetworkSpec{
			Topology: workload.Chain, Peers: k, Seed: seed, RowsPerPeer: 2})
		if err != nil {
			return nil, err
		}
		last := g.Specs[k-1]
		// PDMS: the newcomer may map to whichever existing peer is most
		// similar to its own vocabulary.
		best := 1e18
		for i := 0; i < k-1; i++ {
			if c := alignCost(last, g.Specs[i].Truth, g.Specs[i].Schema.AttrNames()); c < best {
				best = c
			}
		}
		// Mediated: the fixed global vocabulary is the canonical tags.
		tagNames := d.AttrTags()
		tagTruth := make(map[string]string, len(tagNames))
		for _, tag := range tagNames {
			tagTruth[tag] = tag
		}
		med := alignCost(last, tagTruth, tagNames)
		t.AddRow(k, g.Net.NumMappings(), k /* one per source */, best, med)
	}
	return t, nil
}

// alignCost sums the naming gap between a newcomer's attributes and
// their true counterparts in the target vocabulary.
func alignCost(newcomer *workload.Source, targetTruth map[string]string, targetAttrs []string) float64 {
	byTag := make(map[string]string, len(targetAttrs))
	for _, a := range targetAttrs {
		byTag[targetTruth[a]] = a
	}
	cost := 0.0
	for _, a := range newcomer.Schema.AttrNames() {
		counterpart, ok := byTag[newcomer.Truth[a]]
		if !ok {
			cost++ // concept missing: full manual effort
			continue
		}
		cost += 1 - strutil.NameSimilarity(a, counterpart)
	}
	return cost
}

// E4Reformulation measures reformulation cost along mapping chains with
// the pruning heuristics of §3.1.1 on and off.
func E4Reformulation(seed int64, maxChain int) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Reformulation cost vs chain length, pruning on/off",
		Header: []string{"chain", "pruned_states", "pruned_kept", "pruned_us", "nopruning_states", "nopruning_kept", "nopruning_us"},
		Notes: []string{
			"pruning = visited-mapping rule, sub-search memo and containment (§3.1.1)",
		},
	}
	for n := 2; n <= maxChain; n += 2 {
		g, err := workload.GenNetwork(workload.NetworkSpec{
			Topology: workload.Chain, Peers: n, Seed: seed, RowsPerPeer: 2})
		if err != nil {
			return nil, err
		}
		q := g.TitleQuery(0)
		t0 := time.Now()
		withP, err := g.Net.Answer(workload.PeerName(0), q, pdms.ReformOptions{MaxDepth: n + 1})
		if err != nil {
			return nil, err
		}
		withTime := time.Since(t0)
		t1 := time.Now()
		noP, err := g.Net.Answer(workload.PeerName(0), q, pdms.ReformOptions{
			MaxDepth: n + 1, NoVisitedPruning: true, NoContainmentPruning: true, MaxRewritings: 4096})
		if err != nil {
			return nil, err
		}
		noTime := time.Since(t1)
		if !withP.Answers.Equal(noP.Answers) {
			return nil, fmt.Errorf("E4: pruning changed answers at chain %d", n)
		}
		t.AddRow(n, withP.Stats.Explored, withP.Stats.Kept, withTime.Microseconds(),
			noP.Stats.Explored, noP.Stats.Kept, noTime.Microseconds())
	}
	return t, nil
}
