package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// gate is one end-to-end metric and the share of the base's median by
// which it may get worse. BENCHMARK.json carries the same table; the
// smoke test keeps the two in step.
type gate struct {
	name, unit string
	lowerWins  bool
	bound      float64
}

var gates = []gate{
	{"op_p50_us", "us", true, 0.25},
	{"ops_per_s", "1/s", false, 0.25},
	{"heap_bytes_per_op", "B", true, 0.03},
	{"wire_bytes_per_op", "B", true, 0.02},
	{"setup_s", "s", true, 0.25},
}

func findGate(name string) *gate {
	for i := range gates {
		if gates[i].name == name {
			return &gates[i]
		}
	}
	return nil
}

// median and quartileSpread follow Python's statistics.median and
// statistics.quantiles(values, n=4), the rule the benchmark is judged by.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is (Q3 - Q1) / median; ok is false below two values,
// where quartiles are undefined.
func quartileSpread(v []float64) (spread float64, ok bool) {
	if len(v) < 2 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, true
	}
	return (q(3) - q(1)) / med, true
}

// seriesKey names one column of numbers: a metric of a workload, from
// traced or untraced runs.
type seriesKey struct {
	workload string
	trace    bool
	metric   string
}

func loadRuns(path string) (map[seriesKey][]float64, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	series := map[seriesKey][]float64{}
	units := map[string]string{}
	r := bufio.NewReader(f)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		if len(line) > 1 {
			var doc runDoc
			if jerr := json.Unmarshal(line, &doc); jerr != nil {
				return nil, nil, fmt.Errorf("%s:%d: %w", path, lineNo, jerr)
			}
			for name, m := range doc.Metrics {
				k := seriesKey{doc.Workload, doc.Trace, name}
				series[k] = append(series[k], m.Value)
				units[name] = m.Unit
			}
		}
		if err == io.EOF {
			return series, units, nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// compareFiles prints one row per (workload, metric) found in both
// files: both medians, B's median as a ratio of A's (A is the base),
// each side's quartile spread, the bound, and a verdict — "ok",
// "worse" (B's median is worse than A's by more than the bound) or
// "unresolved" (either side's own spread exceeds the bound, so the
// comparison cannot tell). Per-layer metrics have no bound and are
// listed as "info".
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, units, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, _, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	var keys []seriesKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	order := map[string]int{}
	for i, wl := range workloads {
		order[wl.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.trace != y.trace {
			return !x.trace
		}
		if x.workload != y.workload {
			return order[x.workload] < order[y.workload]
		}
		return x.metric < y.metric
	})
	fmt.Fprintf(w, "A (base) = %s\nB        = %s\n", pathA, pathB)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB/A\tA spread\tB spread\tbound\tverdict")
	worse := 0
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		ratio := "n/a (A=0)"
		if ma != 0 {
			ratio = fmt.Sprintf("%.4f", mb/ma)
		}
		sa, okA := quartileSpread(a[k])
		sb, okB := quartileSpread(b[k])
		spread := func(s float64, ok bool, n int) string {
			if !ok {
				return fmt.Sprintf("n=%d", n)
			}
			return fmt.Sprintf("%.4f n=%d", s, n)
		}
		bound, verdict := "-", "info"
		if g := findGate(k.metric); g != nil && !k.trace {
			bound = fmt.Sprintf("%.2f", g.bound)
			loss := (mb - ma) / ma
			if !g.lowerWins {
				loss = -loss
			}
			switch {
			case (okA && sa > g.bound) || (okB && sb > g.bound):
				verdict = "unresolved"
			case loss > g.bound:
				verdict = "worse"
				worse++
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%s\t%s\n", k.workload, k.metric, units[k.metric],
			ma, mb, ratio, spread(sa, okA, len(a[k])), spread(sb, okB, len(b[k])), bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d row(s) worse\n", worse)
	return nil
}
