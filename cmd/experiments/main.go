// Command experiments regenerates every experiment of the reproduction
// (E1–E12 in DESIGN.md) and prints the result tables.
//
// Usage:
//
//	experiments [-seed N] [-only E4] [-explain]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/experiments"
	"repro/internal/pdms"
	"repro/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 42, "random seed for all workloads")
	only := flag.String("only", "", "run a single experiment (E1..E12)")
	format := flag.String("format", "text", "output format: text or csv")
	explain := flag.Bool("explain", false, "print the E2 query's chosen join orders and cost estimates, then exit")
	flag.Parse()

	// Ctrl-C aborts in-flight reformulation searches and join trees
	// through the ctx-aware query path instead of killing the process
	// mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *explain {
		if err := explainE2(ctx, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	run := func() ([]*experiments.Table, error) {
		if *only == "" {
			return experiments.All(ctx, *seed)
		}
		switch *only {
		case "E1":
			return []*experiments.Table{experiments.E1Matching(*seed, 3, 4).Table}, nil
		case "E1b":
			return []*experiments.Table{experiments.E1LearningCurve(*seed, 4, 3)}, nil
		case "E2":
			t, err := experiments.E2Transitive(ctx, *seed, 8)
			return []*experiments.Table{t}, err
		case "E3":
			t, err := experiments.E3MappingEffort(*seed, 16)
			return []*experiments.Table{t}, err
		case "E4":
			t, err := experiments.E4Reformulation(*seed, 8)
			return []*experiments.Table{t}, err
		case "E5":
			t, err := experiments.E5Publish(*seed, 20)
			return []*experiments.Table{t}, err
		case "E6":
			t, err := experiments.E6Advisor(*seed, 4)
			return []*experiments.Table{t}, err
		case "E7":
			t, err := experiments.E7Integrity(*seed, 12)
			return []*experiments.Table{t}, err
		case "E8":
			t, err := experiments.E8Updategrams(*seed, 20)
			return []*experiments.Table{t}, err
		case "E9":
			t, err := experiments.E9Templates(*seed, 8)
			return []*experiments.Table{t}, err
		case "E10":
			t, err := experiments.E10Stats(*seed, 8)
			return []*experiments.Table{t}, err
		case "E11":
			t, err := experiments.E11Degradation(*seed, 10)
			return []*experiments.Table{t}, err
		case "E12":
			t, err := experiments.E12Normalizers(*seed)
			return []*experiments.Table{t}, err
		default:
			return nil, fmt.Errorf("unknown experiment %q", *only)
		}
	}
	tables, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			continue
		}
		fmt.Println(t)
	}
}

// explainE2 prints the execution plans the planner chooses for the E2
// transitive-query workload (8-peer chain): per rewriting branch, the
// join order, access paths, and cardinality estimates.
func explainE2(ctx context.Context, seed int64) error {
	g, err := workload.GenNetwork(workload.NetworkSpec{
		Topology: workload.Chain, Peers: 8, Seed: seed, RowsPerPeer: 10})
	if err != nil {
		return err
	}
	cur, err := g.Net.Query(ctx, pdms.Request{
		Peer:   workload.PeerName(0),
		Query:  g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 9},
	})
	if err != nil {
		return err
	}
	defer cur.Close()
	fmt.Printf("E2 title query at %s over an 8-peer chain:\n%s",
		workload.PeerName(0), cur.Explain())
	return nil
}
