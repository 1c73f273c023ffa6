package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// appendResults adds runs to a result file (a JSON array), so that ten
// runs with the same -out make one set for -compare.
func appendResults(path string, rs []*result) error {
	var all []*result
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	all = append(all, rs...)
	b, err = json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// side is one file's runs of one (workload, metric): the median over the
// runs, and their spread as a share of it — the quartile distance when
// there are at least four runs, else the widest min–max any run saw over
// its repetitions.
type side struct {
	median, spread float64
	runs           int
}

func readSide(rs []*result, workload, metric string) side {
	var vals []float64
	var widest float64
	for _, r := range rs {
		d, ok := r.Metrics[metric]
		if r.Workload != workload || r.Trace || !ok {
			continue
		}
		vals = append(vals, d.Value)
		if w := share(d.Max-d.Min, d.Value); w > widest {
			widest = w
		}
	}
	s := side{median: median(vals), spread: widest, runs: len(vals)}
	if len(vals) >= 4 {
		s.spread = quartileSpread(vals)
	}
	return s
}

// failedOps adds up the failed operations of a workload's runs, traced
// ones too.
func failedOps(rs []*result, workload string) (failed, runs int) {
	for _, r := range rs {
		if r.Workload == workload {
			failed += r.Failed
			runs++
		}
	}
	return failed, runs
}

// wireBounds are the bounds on the paper's wire costs. The metrics are 0
// on a workload without a coordinator, so BENCHMARK.json lists them with
// the per-layer metrics, which carry no bound; -compare gates on them
// wherever they are not 0.
var wireBounds = map[string]float64{
	"remote_round_trips_per_op": 0.02,
	"wire_tuples_per_op":        0.02,
}

// compareFiles prints one row per (end-to-end metric, workload), one per
// wire cost where there is a wire, and one for the workload's failures:
// ok; regressed when b's median is worse than a's by more than the bound;
// unresolved when either side's spread is wider than the bound; missing
// when only one file has the row; failed when either file holds a failed
// operation. It returns an error when a row regressed or failed.
func compareFiles(w io.Writer, decl *declaration, pathA, pathB string) error {
	var a, b []*result
	for _, x := range []struct {
		path string
		into *[]*result
	}{{pathA, &a}, {pathB, &b}} {
		buf, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(buf, x.into); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	gated := append([]metricDecl{}, decl.EndToEnd...)
	for _, d := range decl.PerLayer {
		if bound, ok := wireBounds[d.Name]; ok {
			d.Bound = bound
			gated = append(gated, d)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tchange\tbound\tspread a\tspread b\tverdict")
	bad := 0
	for _, wl := range decl.Workloads {
		failedA, runsA := failedOps(a, wl.Name)
		failedB, runsB := failedOps(b, wl.Name)
		if runsA == 0 && runsB == 0 {
			continue // neither file ran this workload
		}
		for _, d := range gated {
			sa, sb := readSide(a, wl.Name, d.Name), readSide(b, wl.Name, d.Name)
			if sa.median == 0 && sb.median == 0 && wireBounds[d.Name] > 0 {
				continue // no wire in this workload
			}
			if sa.runs == 0 || sb.runs == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t\t%.0f%%\t\t\tmissing\n",
					wl.Name, d.Name, d.Unit, sa.median, sb.median, 100*d.Bound)
				continue
			}
			// worse > 0: b is worse than a, as a share of a.
			worse := share(sb.median-sa.median, sa.median)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			case sa.spread > d.Bound || sb.spread > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, d.Name, d.Unit, sa.median, sb.median, 100*share(sb.median-sa.median, sa.median),
				100*d.Bound, 100*sa.spread, 100*sb.spread, verdict)
		}
		verdict := "ok"
		if failedA > 0 || failedB > 0 {
			verdict = "failed"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed operations\tcount\t%d\t%d\t\t0\t\t\t%s\n", wl.Name, failedA, failedB, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or failed", bad)
	}
	return nil
}
