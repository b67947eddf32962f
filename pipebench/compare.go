package main

// The comparator: benchstat cannot be fetched offline, so pipebench reads
// its own "pipebench-record" lines. "spread" reports each end-to-end
// metric's run-to-run spread against its bound; "compare" judges a change
// against its parent run by run.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchMetric is one end_to_end entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchMetrics(path string) ([]benchMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg.EndToEnd, nil
}

// readRecords returns the untraced run records of a log, in order.
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Run.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) (the default exclusive method) and
// statistics.median compute them.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		lo = min(max(lo, 0), n-1)
		hi = min(max(hi, 0), n-1)
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// byWorkload groups one metric's values by workload, in run order.
func byWorkload(recs []Record, metric string) (map[string][]float64, []string) {
	out := map[string][]float64{}
	var order []string
	for _, r := range recs {
		v, ok := r.Result.Metrics[metric]
		if !ok {
			continue
		}
		w := r.Run.Workload
		if _, seen := out[w]; !seen {
			order = append(order, w)
		}
		out[w] = append(out[w], v.Value)
	}
	return out, order
}

func runCompare(w io.Writer, mode string, args []string) error {
	metrics, err := loadBenchMetrics("BENCHMARK.json")
	if err != nil {
		return err
	}
	switch {
	case mode == "spread" && len(args) == 1:
		recs, err := readRecords(args[0])
		if err != nil {
			return err
		}
		printSpread(w, recs, metrics)
		return nil
	case mode == "compare" && len(args) == 2:
		parent, err := readRecords(args[0])
		if err != nil {
			return err
		}
		change, err := readRecords(args[1])
		if err != nil {
			return err
		}
		regressions := printCompare(w, parent, change, metrics)
		if regressions > 0 {
			return fmt.Errorf("%d regressions beyond their bounds", regressions)
		}
		return nil
	}
	return errors.New("usage: pipebench spread RUNS.log | pipebench compare PARENT.log CHANGE.log")
}

// printSpread writes, per workload and metric, the interquartile range as
// a share of the median, marked "steady" below a third of the bound and
// "WIDE" above the bound.
func printSpread(w io.Writer, recs []Record, metrics []benchMetric) {
	fmt.Fprintf(w, "%-14s %-20s %4s %14s %9s %7s  %s\n", "workload", "metric", "n", "median", "iqr/med", "bound", "verdict")
	for _, bm := range metrics {
		vals, order := byWorkload(recs, bm.Name)
		for _, wl := range order {
			q1, med, q3 := quartiles(vals[wl])
			spread := (q3 - q1) / med
			verdict := "within bound"
			switch {
			case math.IsNaN(spread) || spread > bm.Bound:
				verdict = "WIDE"
			case spread < bm.Bound/3:
				verdict = "steady"
			}
			fmt.Fprintf(w, "%-14s %-20s %4d %14.6g %9.4f %7.3f  %s\n", wl, bm.Name, len(vals[wl]), med, spread, bm.Bound, verdict)
		}
	}
}

// printCompare applies the paired rule per workload and metric: runs are
// paired in order (run them alternately); a gain needs the change to win
// at least 9 of 10 pairs and a median gap wider than the parent's
// interquartile range. A median worse than the parent's by more than the
// bound is a regression. Where either side's spread exceeds the bound the
// verdict is "unresolved", unless every change run beats every parent run.
// It returns the number of regressions.
func printCompare(w io.Writer, parent, change []Record, metrics []benchMetric) int {
	regressions := 0
	fmt.Fprintf(w, "%-14s %-20s %5s %28s %28s %6s  %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, bm := range metrics {
		pv, order := byWorkload(parent, bm.Name)
		cv, _ := byWorkload(change, bm.Name)
		for _, wl := range order {
			p, c := pv[wl], cv[wl]
			if len(c) == 0 {
				continue
			}
			better := func(a, b float64) bool { // a better than b
				if bm.Better == "higher" {
					return a > b
				}
				return a < b
			}
			pairs := min(len(p), len(c))
			wins := 0
			for i := 0; i < pairs; i++ {
				if better(c[i], p[i]) {
					wins++
				}
			}
			pq1, pmed, pq3 := quartiles(p)
			cq1, cmed, cq3 := quartiles(c)
			worse := (cmed - pmed) / pmed
			if bm.Better == "higher" {
				worse = -worse
			}
			allBetter := true
			for _, a := range c {
				for _, b := range p {
					allBetter = allBetter && better(a, b)
				}
			}
			wide := (pq3-pq1)/pmed > bm.Bound || (cq3-cq1)/cmed > bm.Bound
			verdict := "no regression"
			switch {
			case float64(wins) >= 0.9*float64(pairs) && math.Abs(cmed-pmed) > pq3-pq1 && better(cmed, pmed):
				verdict = "gain"
			case wide && !allBetter:
				verdict = "unresolved (spread wider than bound)"
			case worse > bm.Bound:
				verdict = fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.0f%%)", 100*worse, 100*bm.Bound)
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-20s %5d %12.5g [%6.4g, %6.4g] %12.5g [%6.4g, %6.4g] %2d/%-3d  %s\n",
				wl, bm.Name, pairs, pmed, pq1, pq3, cmed, cq1, cq3, wins, pairs, verdict)
		}
	}
	return regressions
}
