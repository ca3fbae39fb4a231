package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// compareFiles prints one row per (workload, end-to-end metric) present in
// both result files, judged by the direction and bound BENCHMARK.json
// declares. It reports false on any regression or any fall in
// success_ratio.
func compareFiles(w io.Writer, manifestPath, oldPath, newPath string) (bool, error) {
	var m struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := readJSON(manifestPath, &m); err != nil {
		return false, err
	}
	var oldRep, newRep report
	if err := readJSON(oldPath, &oldRep); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &newRep); err != nil {
		return false, err
	}
	var names []string
	for name := range oldRep.Workloads {
		if newRep.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("the two files share no workload")
	}
	ok := true
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "verdict")
	for _, name := range names {
		a, b := oldRep.Workloads[name].EndToEnd, newRep.Workloads[name].EndToEnd
		for _, d := range m.EndToEnd {
			va, inA := a[d.Name]
			vb, inB := b[d.Name]
			if !inA || !inB {
				continue
			}
			// worse is the share of the old value by which new is worse.
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case d.Name == "success_ratio" && vb.Value < va.Value:
				verdict = "regressed"
			case worse > d.Bound && (quietSpread(va) > d.Bound || quietSpread(vb) > d.Bound):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			if verdict == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-10s %-20s %14.4f %14.4f %+8.1f%% %6.1f%%  %s\n",
				name, d.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

// quietSpread is the range of the quiet measurements a value was read from,
// as a share of it; 0 for values that are not measured repeatedly.
func quietSpread(v value) float64 {
	if len(v.Quiet) == 0 || v.Value == 0 {
		return 0
	}
	return (slices.Max(v.Quiet) - slices.Min(v.Quiet)) / v.Value
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
