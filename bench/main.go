// Command bench is the repository's benchmark: four workloads, six
// end-to-end metrics, and a traced run that says which layer the time
// went to. See README.md in this directory.
//
//	go run -C bench . -workload embed_flat -seed 1 -seconds 20 -trace 0
//	go run -C bench . -out out/a.json            # all four workloads
//	go run -C bench . -compare out/a.json out/b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// declaration is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down. The program reads it instead
// of repeating it.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration finds BENCHMARK.json beside or above the working
// directory (go run -C bench runs in bench/).
func loadDeclaration() (*declaration, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &d, nil
	}
	return nil, firstErr
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	list := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run — per-layer metrics, spans written to out/trace-<workload>.json")
	out := fs.String("out", "", "append the runs' results to this JSON file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	oracle := fs.Duration("oracle", 0, "stop the sequential oracle at the first segment end after this long (default: replay the whole 10 000-op prefix)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	decl, err := loadDeclaration()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(os.Stdout, decl, fs.Arg(0), fs.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(decl.RunSeconds)
	}
	var names []string
	if *list != "" {
		names = strings.Split(*list, ",")
	} else {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: "out", oracle: *oracle,
		replay: 200 * time.Millisecond}
	if o.trace {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return err
		}
	}
	var results []*result
	for _, name := range names {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		if err := res.finish(decl); err != nil {
			return err
		}
		res.print(os.Stderr)
		results = append(results, res)
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return err
		}
	}
	failed := 0
	for _, res := range results {
		failed += res.Failed
	}
	// The driver's line: one workload per invocation. With several, the
	// line describes the last one and the counts cover all.
	last := results[len(results)-1]
	if err := last.printDriverLine(os.Stdout, decl.metricsFor(o.trace), results); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or disagreed with the oracle", failed)
	}
	return nil
}

func (d *declaration) metricsFor(trace bool) []metricDecl {
	if trace {
		return d.PerLayer
	}
	return d.EndToEnd
}

// print writes the human-readable table: every metric by name with its
// unit, the min–max over repetitions and the sample count.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d repetitions, %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Trace, r.Reps, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s [%.4f – %.4f, n=%d]\n", n, d.Value, d.Unit, d.Min, d.Max, d.N)
	}
}

// printDriverLine prints the contract's result object: of everything the
// run measured, the metrics the run's mode declares.
func (r *result) printDriverLine(w *os.File, decl []metricDecl, all []*result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Metrics: map[string]mv{}}
	for _, x := range all {
		line.Attempted += x.Attempted
		line.Failed += x.Failed
	}
	line.Correct = line.Failed == 0
	for _, d := range decl {
		line.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
