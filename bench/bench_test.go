package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary's hidden
// node mode, which the driver reaches by re-executing itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "node" {
		os.Exit(nodeMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// tables — workloads, why sentences, gated metrics and bounds — in step.
func TestContractMatchesProgram(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(c.EndToEnd) != len(gates) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(gates))
	}
	for i, m := range c.EndToEnd {
		g := gates[i]
		if m.Name != g.name || m.Unit != g.unit || m.Bound != g.bound || (m.Better == "lower") != g.lowerWins {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, g)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

// toy are sizes at which every workload finishes in a fraction of a second.
var toy = sizes{chainRows: 3, coldRows: 12, factRows: 1500, walRecords: 50, setups: 1}

func runToy(t *testing.T, ps *procs, w workloadDef, seed int64, trace bool) *runDoc {
	t.Helper()
	e := &env{def: &w, procs: ps, seed: seed, seconds: 150 * time.Millisecond, trace: trace, sz: toy, tmp: t.TempDir()}
	if trace {
		e.outDir = t.TempDir()
	}
	r, err := w.run(e)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
	}
	doc := describe(e, r)
	if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
		t.Errorf("%s seed %d trace %v: attempted %d failed %d: %s", w.name, seed, trace, doc.Attempted, doc.Failed, doc.FirstError)
	}
	return doc
}

// TestSmoke runs every workload, untraced and traced, at toy sizes on
// two seeds, and checks that the output carries exactly the metrics
// BENCHMARK.json names, that nothing fails, and that tracing does not
// change which refresh paths the coordinator takes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	c := loadContract(t)
	var wantE2E, wantLayer []string
	units := map[string]string{}
	for _, m := range c.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		units[m.Name] = m.Unit
		if !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q", m.Name)
		}
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	ps := &procs{}
	defer ps.killAll()
	out := t.TempDir()
	for _, seed := range []int64{42, 7} {
		for _, w := range workloads {
			plain := runToy(t, ps, w, seed, false)
			traced := runToy(t, ps, w, seed, true)
			if got := sortedKeys(plain.Metrics); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("%s untraced metrics %v, BENCHMARK.json end_to_end %v", w.name, got, wantE2E)
			}
			if got := sortedKeys(traced.Metrics); !reflect.DeepEqual(got, wantLayer) {
				t.Errorf("%s traced metrics %v, BENCHMARK.json per_layer %v", w.name, got, wantLayer)
			}
			for _, doc := range []*runDoc{plain, traced} {
				for name, m := range doc.Metrics {
					if m.Unit != units[name] {
						t.Errorf("%s %s: unit %q, BENCHMARK.json %q", w.name, name, m.Unit, units[name])
					}
				}
				if err := emit(io.Discard, doc, out); err != nil {
					t.Fatal(err)
				}
			}
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s %s = %v: end-to-end metrics are never 0", w.name, name, m.Value)
				}
			}
			if a, b := plain.Extra["sync_paths_per_op"], traced.Extra["sync_paths_per_op"]; !reflect.DeepEqual(a, b) {
				t.Errorf("%s: sync paths untraced %v, traced %v", w.name, a, b)
			}
			if traced.Metrics["transport.retries_per_op"].Value != 0 {
				t.Errorf("%s: retries %v", w.name, traced.Metrics["transport.retries_per_op"].Value)
			}
			if len(traced.Layers) == 0 || traced.Metrics["unattributed_pct"].Value > 20 {
				t.Errorf("%s: layer table %v leaves %v%% unattributed", w.name, traced.Layers, traced.Metrics["unattributed_pct"].Value)
			}
			if spans, _ := traced.Extra["spans_file"].(string); spans == "" {
				t.Errorf("%s: traced run with an output directory wrote no spans", w.name)
			} else if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("%s: span file %s: %v", w.name, spans, err)
			}
			if w.name == "rejoin" && traced.Metrics["store.replayed_records"].Value != float64(toy.walRecords) {
				t.Errorf("rejoin replayed %v records, want %d", traced.Metrics["store.replayed_records"].Value, toy.walRecords)
			}
		}
	}
	// The runs just appended are comparable with themselves: one row per
	// (workload, metric), none worse.
	var buf bytes.Buffer
	runs := filepath.Join(out, "runs.jsonl")
	if err := compareFiles(&buf, runs, runs); err != nil {
		t.Fatal(err)
	}
	table := buf.String()
	for _, w := range workloads {
		for _, name := range append(wantE2E, wantLayer...) {
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.name) + `\s+` + regexp.QuoteMeta(name) + `\s`).MatchString(table) {
				t.Errorf("compare output has no row for %s %s", w.name, name)
			}
		}
	}
	if !strings.Contains(table, "0 row(s) worse") {
		t.Errorf("a file compared with itself has worse rows:\n%s", table)
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	got, ok := quartileSpread(v)
	if want := (8.25 - 2.75) / 5.5; !ok || got != want {
		t.Errorf("quartileSpread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

// TestAttributeParallelChildren checks the self-time rule on an
// operation whose two State probes overlap: every instant belongs to
// the deepest open span, so the rows add up to the operation exactly.
func TestAttributeParallelChildren(t *testing.T) {
	group := []span{
		{name: spOp, op: 1, id: 1, parent: 0, start: 0, end: 100},
		{name: spQuery, op: 1, id: 2, parent: 1, start: 10, end: 70},
		{name: spState, op: 1, id: 3, parent: 2, start: 20, end: 50},
		{name: spState, op: 1, id: 4, parent: 2, start: 30, end: 60},
		{name: spExec, op: 1, id: 5, parent: 1, start: 70, end: 95},
	}
	var acc [numSpanNames]layerAcc
	if !attribute(group, &acc) {
		t.Fatal("no root found")
	}
	want := map[spanName]int64{spOp: 15, spQuery: 20, spState: 40, spExec: 25}
	var total int64
	for name, w := range want {
		if acc[name].wall != w {
			t.Errorf("%s self = %d, want %d", spanNames[name], acc[name].wall, w)
		}
		total += acc[name].wall
	}
	if total != 100 || acc[spState].busy != 60 || acc[spState].calls != 2 {
		t.Errorf("total %d busy %d calls %d", total, acc[spState].busy, acc[spState].calls)
	}
}
