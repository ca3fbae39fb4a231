// Command bench is the repository's benchmark: four closed-loop workloads
// against the in-process stack over loopback (engine substrate, proxy or
// fleet, attested brokers), end-to-end metrics measured with tracing off,
// and a separate traced pass that times the calls into each module's
// public functions. See README.md.
//
//	bash bench/run.sh -seed 1                       # all workloads, both passes
//	bash bench/run.sh --workload paper --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// defaultSeconds is the measuring time of one run (half-second slices), and
// BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// options is one invocation's settings.
type options struct {
	workload string // empty: all four, untraced and traced
	seed     uint64
	seconds  int
	trace    int // with workload: 0 = end-to-end metrics, 1 = per-layer
	quick    bool
	out      string
}

// report is what result.json holds.
type report struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

type meta struct {
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func main() {
	var o options
	var compare, printManifest bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (paper, repeat, pipeline, edge) and end with one JSON line")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measuring time per workload, cut into half-second slices")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke test: two slices, small samples; never a source of numbers")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	flag.BoolVar(&compare, "compare", false, "compare two result.json files: -compare old.json new.json")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json")
	flag.Parse()

	switch {
	case printManifest:
		m, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(m)
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		rep, err := run(o, os.Stdout)
		if err != nil {
			fatal(err)
		}
		for _, res := range rep.Workloads {
			if !res.Correct {
				os.Exit(1)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run executes the selected workloads one after another, prints every
// metric by name with its unit, and writes result.json and the traces.
func run(o options, w io.Writer) (*report, error) {
	// The engine's net/http server logs a "TLS handshake error" line for
	// every pooled TLS connection the proxy drops; keep them off the run.
	log.SetOutput(io.Discard)
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	selected := workloads
	wantE2E, wantTrace := true, true
	if o.workload != "" {
		one := workloadByName(o.workload)
		if one == nil {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{one}
		wantE2E, wantTrace = o.trace == 0, o.trace != 0
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workloads: map[string]*result{}, Meta: meta{
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: commit(),
		Network: "loopback, in-process engine",
	}}
	fmt.Fprintf(w, "bench: seed %d, %d s per workload, GOMAXPROCS %d of %d CPUs, %s, commit %s, %s\n",
		o.seed, o.seconds, rep.Meta.GOMAXPROCS, rep.Meta.NumCPU, rep.Meta.GoVersion, rep.Meta.Commit, rep.Meta.Network)
	for _, wl := range selected {
		sz := fullSizes(o.seconds, !wantE2E)
		if o.quick {
			sz = quickSizes()
		}
		res, spans, err := runWorkload(wl, o.seed, sz, wantE2E, wantTrace)
		if err != nil {
			return nil, err
		}
		rep.Workloads[wl.name] = res
		printResult(w, res)
		if wantTrace {
			if err := writeJSON(filepath.Join(o.out, "trace-"+wl.name+".json"), spans); err != nil {
				return nil, err
			}
		}
	}
	if err := writeJSON(filepath.Join(o.out, "result.json"), rep); err != nil {
		return nil, err
	}
	if o.workload != "" {
		// The benchmark contract: one JSON object as the last line.
		res := rep.Workloads[o.workload]
		metrics := res.EndToEnd
		if !wantE2E {
			metrics = res.PerLayer
		}
		line := struct {
			Correct   bool                  `json:"correct"`
			Attempted int                   `json:"attempted"`
			Failed    int                   `json:"failed"`
			Metrics   map[string]lineMetric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}
		for name, v := range metrics {
			line.Metrics[name] = lineMetric{v.Value, v.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return rep, nil
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// commit names the source revision when the working directory is the root
// of a git checkout, by reading .git directly (no process is started and
// nothing outside the directory is read).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(b))
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s: %d callers, %d slices x %.1f s, stream %s, host slowdown %.3f (end-to-end times are divided by it)\n",
		res.Workload, res.Callers, res.Slices, res.SliceSec, res.Fingerprint[:12], res.HostSlowdown)
	printValues := func(defs []metricDef, values map[string]value) {
		for _, d := range defs {
			v := values[d.Name]
			fmt.Fprintf(w, "  %-30s %14.4f %-6s", d.Name, v.Value, v.Unit)
			if len(v.Quiet) > 0 {
				fmt.Fprintf(w, " quiet [%.4f .. %.4f] whole run %.4f", slices.Min(v.Quiet), slices.Max(v.Quiet), v.Whole)
			}
			if v.N > 0 {
				fmt.Fprintf(w, " n=%d", v.N)
			}
			fmt.Fprintln(w)
		}
	}
	if res.EndToEnd != nil {
		printValues(endToEnd, res.EndToEnd)
	}
	if res.PerLayer != nil {
		printValues(perLayer, res.PerLayer)
		l := res.Ladder
		fmt.Fprintf(w, "  ladder: mean Broker.Search %.1f us =", l.TotalUS)
		for _, r := range l.Rungs {
			fmt.Fprintf(w, " %s %.1f (%.1f%%)", r.Name, r.SelfUS, 100*r.Share)
		}
		fmt.Fprintln(w)
	}
	var failing []string
	for _, c := range res.Checks {
		if !c.OK {
			failing = append(failing, c.Name+": "+c.Detail)
		}
	}
	sort.Strings(failing)
	if len(failing) == 0 {
		fmt.Fprintf(w, "verify: ok (%s, %d checks, %d attempted, %d failed)\n", res.Workload, len(res.Checks), res.Attempted, res.Failed)
	} else {
		fmt.Fprintf(w, "verify: FAILED (%s) %s\n", res.Workload, strings.Join(failing, "; "))
	}
}
