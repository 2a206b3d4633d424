// Command revere demonstrates a full REVERE deployment on a synthetic
// department web: it generates a site, annotates and publishes it
// (MANGROVE), runs the instant-gratification applications, joins a small
// university PDMS and answers a cross-schema query, and consults the
// corpus advisors.
//
// Usage:
//
//	revere [-seed N] [-people N] [-courses N] [-peers N] [-par N] [-explain]
//
// The distributed modes split the deterministic E2 chain workload
// across real OS processes speaking the wire protocol (PROTOCOL.md):
//
//	revere serve [-listen ADDR] [-seed N] [-peers N] [-rows N] [-own LO:HI]
//	             [-data DIR] [-extra K]
//	revere query [-seed N] [-peers N] [-rows N] [-par N] [-remote LO:HI=ADDR]...
//	             [-retry N] [-timeout D] [-stale] [-explain] [-watch D]
//
// A serve process hosts the peers in [LO:HI) on a TCP port; a query
// process runs the E2 title query on a coordinator whose -remote ranges
// stream their relations over the wire. Both print enough to verify a
// deployment: serve prints "listening ADDR" once ready, query ends with
// a digest of the sorted answer set that is identical across placements
// (all-local, loopback, N processes) of the same seed. See README.md
// for a three-process quickstart.
//
// -retry and -timeout put the query's remote operations under the
// declarative retry policy (capped jittered backoff, per-attempt
// timeout, shared budget); -stale additionally serves last-good mirror
// snapshots when a remote peer stays unreachable, printing one
// "degraded PEER ..." line per stale peer. -watch re-runs the query at
// an interval with one long-lived coordinator, so killing and
// restarting a serve process mid-watch shows the full degradation
// cycle (stale serving needs a mirror from a successful earlier sync —
// a coordinator started after the peer died has nothing to serve and
// fails typed). -data DIR makes the served peers durable: a fresh
// directory is populated from the generated workload and checkpointed,
// and a restarted process — even after SIGKILL — recovers the exact
// pre-crash state from snapshot+log, so a watching coordinator rejoins
// it via Delta records instead of full rescans (query prints a
// cumulative "sync scans N deltas M" line to prove it); -extra K
// inserts K deterministic extra rows per served peer after startup, the
// knob that forces fingerprint movement.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/advisor"
	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/mangrove"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/strutil"
	"repro/internal/webgen"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		var sub func([]string) error
		switch os.Args[1] {
		case "serve":
			sub = runServe
		case "query":
			sub = runQuery
		}
		if sub != nil {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "revere:", err)
				os.Exit(1)
			}
			return
		}
	}
	seed := flag.Int64("seed", 1, "random seed")
	people := flag.Int("people", 6, "people on the generated site")
	courses := flag.Int("courses", 8, "courses on the generated site")
	peers := flag.Int("peers", 5, "universities in the PDMS")
	par := flag.Int("par", 0, "query execution parallelism: 0 auto, 1 sequential, N workers")
	explain := flag.Bool("explain", false, "print the chosen join orders and cost estimates for the PDMS query")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "revere: unknown command %q (want serve or query)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *seed, *people, *courses, *peers, *par, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "revere:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, seed int64, people, courses, peers, par int, explain bool) error {
	fmt.Println("=== MANGROVE: structuring a department web ===")
	g := webgen.Generate(webgen.Options{Seed: seed, NPeople: people,
		NCourses: courses, NTalks: 3, ConflictRate: 0.4, Malicious: true})
	if err := webgen.AnnotateAll(g); err != nil {
		return err
	}
	repo := mangrove.NewRepository(mangrove.DepartmentSchema())
	triples := 0
	for _, url := range g.Site.URLs() {
		rep, err := repo.Publish(url, g.Site.Get(url))
		if err != nil {
			return err
		}
		triples += rep.Triples
	}
	fmt.Printf("published %d pages → %d triples\n\n", g.Site.Len(), triples)

	cal := &apps.Calendar{Repo: repo}
	fmt.Println("--- department calendar (first 5 entries) ---")
	for i, e := range cal.Entries() {
		if i >= 5 {
			break
		}
		fmt.Println(" ", e)
	}
	if conflicts := cal.Conflicts(); len(conflicts) > 0 {
		fmt.Printf("  (%d room conflicts detected)\n", len(conflicts))
	}

	fmt.Println("\n--- Who's Who with source-scoped phone cleaning ---")
	dir := &apps.WhosWho{Repo: repo,
		Policy: mangrove.PreferSourcePolicy{Prefix: "http://dept.example.edu/people/"}}
	for i, e := range dir.Entries() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-22s %v  %s\n", e.Name, e.Phones, e.Email)
	}
	raw := &apps.WhosWho{Repo: repo, Policy: mangrove.AnyPolicy{}}
	conflicted := 0
	for _, e := range raw.Entries() {
		if len(e.Phones) > 1 {
			conflicted++
		}
	}
	fmt.Printf("  (deferred constraints: %d people with conflicting phones in raw data)\n", conflicted)

	fmt.Println("\n--- annotation assistant: what tag for a highlighted span? ---")
	suggester := mangrove.NewTagSuggester(repo)
	for _, span := range []string{"206-999-1234", "newperson@cs.example.edu", "Friday"} {
		if sugg := suggester.Suggest(span, 1); len(sugg) > 0 {
			fmt.Printf("  %-28q → %s (%.2f)\n", span, sugg[0].Tag, sugg[0].Score)
		}
	}

	fmt.Println("\n--- annotation-enabled search: 'database' ---")
	search := &apps.Search{Repo: repo}
	for _, h := range search.Query("database", 3) {
		fmt.Printf("  %.3f [%s] %s\n", h.Score, h.Type, clip(h.Snippet, 60))
	}

	fmt.Println("\n=== Piazza: a web of universities ===")
	net, err := workload.GenNetwork(workload.NetworkSpec{
		Topology: workload.Chain, Peers: peers, Seed: seed, RowsPerPeer: 4})
	if err != nil {
		return err
	}
	fmt.Printf("%d peers, %d pairwise mappings (chain)\n", net.Net.NumPeers(), net.Net.NumMappings())
	// Stream the cross-schema answers: the first ones print as the
	// union's join trees produce them, and Ctrl-C aborts mid-query.
	// Rewriting branches execute with the requested parallelism.
	cur, err := net.Net.Query(ctx, pdms.Request{
		Peer: workload.PeerName(0), Query: net.TitleQuery(0), Parallelism: par})
	if err != nil {
		return err
	}
	defer cur.Close()
	if explain {
		fmt.Print(cur.Explain())
	}
	answers := 0
	for cur.Next() {
		if answers < 3 {
			fmt.Printf("  first answers, as served: %v\n", cur.Tuple())
		}
		answers++
	}
	if err := cur.Err(); err != nil {
		return err
	}
	fmt.Printf("query at %s in its own vocabulary: %d answers (oracle %d), %d rewritings over %d peers\n",
		workload.PeerName(0), answers, len(net.AllTitles),
		cur.Stats().Kept, cur.Stats().PeersTouched)

	fmt.Println("\n=== Corpus advisors ===")
	// Learn every peer schema into the corpus, then advise a newcomer.
	rev := newcomerAdvice(net)
	fmt.Println(rev)
	return nil
}

func newcomerAdvice(net *workload.GeneratedNetwork) string {
	// Build the corpus from the generated peers.
	c := corpus.New(strutil.DefaultSynonyms())
	for _, src := range net.Specs {
		db := relation.NewDatabase()
		db.Put(src.Data)
		c.Add(&corpus.Entry{Name: src.Name,
			Relations: []relation.Schema{src.Schema}, Sample: db})
	}
	adv := &advisor.DesignAdvisor{Corpus: c}
	partial := relation.NewSchema("newuni",
		relation.Attr("title"), relation.Attr("lecturer"))
	props := adv.Propose(partial, 2)
	out := "newcomer with partial schema (title, lecturer):\n"
	for _, p := range props {
		out += fmt.Sprintf("  proposal %-8s sim=%.3f fit=%.3f mapping=%v\n",
			p.Entry.Name, p.Sim, p.Fit, p.Mapping)
	}
	out += fmt.Sprintf("  auto-complete: %v\n", adv.AutoComplete(partial, 5))
	return out
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
