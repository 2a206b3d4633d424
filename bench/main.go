// Command bench is the real-topology benchmark of the REVERE/Piazza
// reproduction: two OS processes on one host joined by loopback TCP, a
// coordinator (this process) that embeds a pdms.Network and generates
// all load, and a node (this binary re-executed in a hidden mode) that
// serves peers through transport.Server.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//	bench --compare A.jsonl B.jsonl
//
// One run measures one workload (every workload in turn when --workload
// is absent) and prints two lines on stdout: a self-describing JSON
// document, then the result object the benchmark contract asks for
// (correct, attempted, failed, metrics). A human-readable table goes to
// stderr. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

// runDoc is the self-describing document of one run.
type runDoc struct {
	Bench       string            `json:"bench"`
	Commit      string            `json:"commit"`
	Go          string            `json:"go"`
	NProc       int               `json:"nproc"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Topology    string            `json:"topology"`
	Loop        string            `json:"loop"`
	FlushPolicy string            `json:"flush_policy"`
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Op          string            `json:"op"`
	Clients     int               `json:"clients"`
	Samples     int               `json:"samples"`
	Setups      int               `json:"setups"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FirstError  string            `json:"first_error,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Extra       map[string]any    `json:"extra,omitempty"`
	Layers      []layerRow        `json:"layers,omitempty"`
}

// contractResult is the last stdout line: exactly these four keys.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "node" {
		os.Exit(nodeMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run (default: each in turn)")
	seed := flag.Int64("seed", 42, "workload seed; the node receives only the inputs generated from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans kept in memory")
	out := flag.String("out", "", "directory to append runs.jsonl to and, in a traced run, write span JSONL into")
	compare := flag.Bool("compare", false, "compare two runs.jsonl files given as arguments")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench --compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	defs := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		defs = []workloadDef{*w}
	}
	if *seconds <= 0 || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want --seconds > 0, --trace 0 or 1, and no other arguments")
		os.Exit(2)
	}
	os.Exit(runAll(defs, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out))
}

func runAll(defs []workloadDef, seed int64, seconds time.Duration, trace bool, out string) int {
	ps := &procs{}
	tmp, err := os.MkdirTemp("", "revere-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		ps.killAll()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range defs {
		e := &env{def: &w, procs: ps, seed: seed, seconds: seconds, trace: trace, sz: fullSizes, tmp: tmp, outDir: out}
		r, err := w.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		doc := describe(e, r)
		printTable(os.Stderr, doc)
		if err := emit(os.Stdout, doc, out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !doc.Correct {
			code = 1
		}
	}
	return code
}

// describe builds the run's self-describing document.
func describe(e *env, r *runResult) *runDoc {
	w := e.def
	doc := &runDoc{
		Bench: "revere-bench", Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: e.seed, Seconds: e.seconds.Seconds(), Trace: e.trace,
		Topology:    "2 OS processes on one host, loopback TCP; link latency is not measured",
		Loop:        "closed",
		FlushPolicy: "store default (SyncAppend unset): every append reaches the OS before Insert returns, no per-record fsync",
		Workload:    w.name, Why: w.why, Op: w.op, Clients: w.clients,
		Samples: r.samples, Setups: r.setups,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.endToEnd, Extra: r.extra, Layers: r.layers,
	}
	if e.trace {
		doc.Metrics = r.perLayer
	}
	if r.firstErr != nil {
		doc.FirstError = r.firstErr.Error()
	}
	return doc
}

// emit prints the document and the contract result, and appends the
// document to OUT/runs.jsonl when an output directory was given.
func emit(w io.Writer, doc *runDoc, out string) error {
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	res, err := json.Marshal(contractResult{Correct: doc.Correct, Attempted: doc.Attempted,
		Failed: doc.Failed, Metrics: doc.Metrics})
	if err != nil {
		return err
	}
	if out != "" {
		f, err := os.OpenFile(filepath.Join(out, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTable is the human-readable form of a run.
func printTable(w io.Writer, doc *runDoc) {
	mode := "untraced"
	if doc.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %.0fs %s  %d client(s), closed loop  %s\n", doc.Workload, doc.Seed,
		doc.Seconds, mode, doc.Clients, doc.Topology)
	fmt.Fprintf(w, "op: %s\nattempted %d  failed %d  samples %d  set-ups %d  commit %s %s nproc %d\n",
		doc.Op, doc.Attempted, doc.Failed, doc.Samples, doc.Setups, doc.Commit, doc.Go, doc.NProc)
	if doc.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", doc.FirstError)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, k := range sortedKeys(doc.Metrics) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", k, doc.Metrics[k].Value, doc.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(doc.Extra) {
		fmt.Fprintf(tw, "  (%s)\t%v\t\n", k, doc.Extra[k])
	}
	tw.Flush()
	if len(doc.Layers) > 0 {
		fmt.Fprintln(w, "per-layer self time (each instant of an op belongs to the deepest open span):")
		tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "  layer\tself us/op\tshare %\tbusy us/op\tcalls/op\t")
		for _, l := range doc.Layers {
			fmt.Fprintf(tw, "  %s\t%.1f\t%.1f\t%.1f\t%.2f\t\n", l.Name, l.WallUSPerOp, l.SharePct, l.BusyUSPerOp, l.CallsPerOp)
		}
		tw.Flush()
	}
}
