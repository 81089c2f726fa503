package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json --compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults collects every metric value from the result lines (JSON
// objects) in path; other lines are skipped.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for k, m := range r.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare applies BENCHMARK.json's bounds to two sets of runs of one
// workload: each end-to-end metric's change median against the parent
// median, reported unresolved when the parent's own spread exceeds the
// bound. It exits 1 when any metric regressed.
func runCompare(parentPath, changePath string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "joindbench: compare needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "joindbench: BENCHMARK.json:", err)
		return 2
	}
	parent, err := readResults(parentPath)
	if err == nil {
		var change map[string][]float64
		if change, err = readResults(changePath); err == nil {
			return printComparison(spec, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "joindbench:", err)
	return 2
}

func printComparison(spec benchmarkSpec, parent, change map[string][]float64) int {
	sort.Slice(spec.EndToEnd, func(i, j int) bool { return spec.EndToEnd[i].Name < spec.EndToEnd[j].Name })
	rc := 0
	for _, m := range spec.EndToEnd {
		p, c := parent[m.Name], change[m.Name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Printf("%s: missing (%d parent runs, %d change runs)\n", m.Name, len(p), len(c))
			continue
		}
		verdict := "ok"
		switch {
		case regressed(p, c, m.Bound, m.Better):
			verdict = "REGRESSED"
			rc = 1
		case iqrShare(p) > m.Bound:
			verdict = "unresolved (parent spread above bound)"
		}
		fmt.Printf("%s: parent %.4f change %.4f %s, worse by %+.1f%% (bound %.0f%%): %s\n",
			m.Name, median(p), median(c), m.Unit, 100*worseBy(median(p), median(c), m.Better), 100*m.Bound, verdict)
	}
	return rc
}
