package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestManifestIsGenerated: BENCHMARK.json is the output of -manifest, so
// the metric and workload names it declares are the ones the code emits.
func TestManifestIsGenerated(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(d metricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s has direction %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		checkDef(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s has bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		checkDef(d)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(workloads) < 2 || len(workloads) > 4 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// TestQuickRun runs every workload at smoke-test size, both passes, and
// checks that exactly the declared metrics come out, each with its unit,
// and that the correctness gate passes.
func TestQuickRun(t *testing.T) {
	out := t.TempDir()
	rep, err := run(options{seed: 1, seconds: 1, quick: true, out: out}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res := rep.Workloads[w.name]
		if res == nil {
			t.Fatalf("no result for %s", w.name)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: verify: %s: %s", w.name, c.Name, c.Detail)
			}
		}
		sameNames := func(kind string, defs []metricDef, got map[string]value) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", w.name, len(got), kind, len(defs))
			}
			for _, d := range defs {
				v, ok := got[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: %s metric %s missing or with unit %q, want %q", w.name, kind, d.Name, v.Unit, d.Unit)
				}
			}
		}
		sameNames("end-to-end", endToEnd, res.EndToEnd)
		sameNames("per-layer", perLayer, res.PerLayer)
		for _, d := range endToEnd {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, res.EndToEnd[d.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Error(err)
		}
	}

	// A result compared with itself has no regression; one whose latency
	// doubled has.
	path := filepath.Join(out, "result.json")
	manifestPath := filepath.Join("..", "BENCHMARK.json")
	if ok, err := compareFiles(io.Discard, manifestPath, path, path); err != nil || !ok {
		t.Errorf("compare with itself: ok=%v err=%v", ok, err)
	}
	v := rep.Workloads["paper"].EndToEnd["search_p50_us"]
	v.Value *= 2
	v.Quiet = []float64{v.Value}
	rep.Workloads["paper"].EndToEnd["search_p50_us"] = v
	slower := filepath.Join(out, "slower.json")
	if err := writeJSON(slower, rep); err != nil {
		t.Fatal(err)
	}
	if ok, err := compareFiles(io.Discard, manifestPath, path, slower); err != nil || ok {
		t.Errorf("compare with a doubled p50: ok=%v err=%v, want a regression", ok, err)
	}
}

// TestStreamsFollowTheSeed: one seed gives one stream, another seed
// another.
func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		print := func(seed uint64) string {
			_, stream, err := buildStream(w, seed, quickSizes())
			if err != nil {
				t.Fatal(err)
			}
			return fingerprint(stream)
		}
		if a, b := print(1), print(1); a != b {
			t.Errorf("%s: seed 1 gave %s then %s", w.name, a, b)
		}
		if a, b := print(1), print(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}
