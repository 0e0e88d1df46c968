package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the driver computes a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func loadSet(path string) (runSet, error) {
	var set runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (s runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// exactMismatch reports the exact counts of one workload that do not
// repeat over every run of both sets.
func exactMismatch(workload string, sets ...runSet) []string {
	seen := map[string]int64{}
	bad := map[string]bool{}
	for _, s := range sets {
		for _, r := range s.Runs {
			if r.Workload != workload {
				continue
			}
			for k, v := range r.Exact {
				if old, ok := seen[k]; ok && old != v {
					bad[k] = true
				}
				seen[k] = v
			}
		}
	}
	var out []string
	for k := range bad {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareSets prints, per workload and end-to-end metric, both
// medians, the relative difference and the bound, and marks each row
// ok, worse (B's median is worse than A's by more than the bound) or
// unresolved (the spread of either set is wider than the bound, and
// not every run of B reads better than every run of A). It returns 1
// on any worse row or any exact count that does not repeat.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadSet(pathA)
	if err == nil {
		var b runSet
		if b, err = loadSet(pathB); err == nil {
			return printComparison(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func printComparison(a, b runSet, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %6s %9s %9s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "bound", "spread A", "spread B", "mark")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.name, m.Name), b.values(wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is how far B is on the bad side of A, as a share of A.
			worse := (mb - ma) / ma
			allBetter := slices.Min(va) > slices.Max(vb)
			if m.Better == "higher" {
				worse = -worse
				allBetter = slices.Max(va) < slices.Min(vb)
			}
			sa, sb := spread(va), spread(vb)
			mark := "ok"
			switch {
			case worse > m.Bound:
				mark, code = "worse", 1
			case (sa > m.Bound || sb > m.Bound) && !allBetter:
				mark = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-26s %12.6g %12.6g %+7.1f%% %5.0f%% %8.1f%% %8.1f%%  %s\n",
				wl.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, 100*sa, 100*sb, mark)
		}
		if bad := exactMismatch(wl.name, a, b); len(bad) > 0 {
			fmt.Fprintf(w, "%-16s exact counts differ between runs: %v\n", wl.name, bad)
			code = 1
		}
	}
	return code
}
