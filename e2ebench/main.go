// Command e2ebench is the repository's end-to-end benchmark. It drives the
// configurations users run — the aapcnode -local path over shared-memory
// and tcp links, and the aapcbench simulator sweep — checks every output,
// and prints each metric declared in BENCHMARK.json with its unit and
// sample count.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash e2ebench/run.sh --workload shm_lam_64k --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics of a traced run, whose spans
// are written to .bench_out/. Every earlier stdout line is one metric row
// carrying the run's context (commit, nproc, GOMAXPROCS, Go, kernel, seed).
// A run whose outputs fail a check prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one measured value. Samples is the number of observations the
// value summarizes.
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// result is what a workload run hands back to main.
type result struct {
	attempted, failed int
	// problems lists failed output checks; any entry makes the run incorrect.
	problems []string
	metrics  map[string]metric
	// idle lists metric-name prefixes of layers this workload does not
	// exercise: they are reported as 0, the work those layers did.
	idle []string
	// notes are human-readable rows printed before the result line.
	notes []string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	ctx      runContext
}

// declared is the metric contract read from BENCHMARK.json.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: byte pattern and simulator jitter")
	seconds := flag.Int("seconds", 20, "measurement window per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	record := flag.Bool("record-reference", false,
		"recompute the simulator reference cell times into e2ebench/reference.json and exit")
	flag.Parse()
	if *record {
		if err := recordReference("e2ebench/reference.json"); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	cfg := runConfig{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		traced:   trace == 1,
		ctx:      newRunContext(workload, seed, trace),
	}
	var res *result
	if workload == simWorkload {
		res, err = runSim(cfg)
	} else {
		spec, ok := realWorkloads[workload]
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err = runReal(cfg, spec)
	}
	if err != nil {
		return err
	}
	want := decl.EndToEnd
	if cfg.traced {
		want = decl.PerLayer
	}
	return report(os.Stdout, cfg.ctx, res, want)
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric contract: %w", err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// report prints one row per metric, then the result line. It fails when the
// workload's metrics and the declared ones disagree, and exits 1 (after
// printing) when an output check failed.
func report(out *os.File, ctx runContext, res *result, want []declaredMetric) error {
	metrics := make(map[string]any, len(want))
	names := make(map[string]bool, len(want))
	for _, d := range want {
		names[d.Name] = true
		m, ok := res.metrics[d.Name]
		if !ok {
			if !hasPrefix(d.Name, res.idle) && !hasPrefix(d.Name, []string{"self."}) {
				return fmt.Errorf("metric %s declared but not measured", d.Name)
			}
			m = metric{Unit: d.Unit}
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		row(out, ctx, map[string]any{"metric": d.Name, "value": m.Value, "unit": m.Unit, "samples": m.Samples})
	}
	var extra []string
	for name := range res.metrics {
		if !names[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics measured but not declared: %s", strings.Join(extra, ", "))
	}
	for _, n := range res.notes {
		row(out, ctx, map[string]any{"note": n})
	}
	for _, p := range res.problems {
		row(out, ctx, map[string]any{"check_failed": p})
	}
	correct := len(res.problems) == 0 && res.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return errors.New("output checks failed (see check_failed rows)")
	}
	return nil
}

// row prints one JSON row: the fields, then the run's context.
func row(out *os.File, ctx runContext, fields map[string]any) {
	f, err := json.Marshal(fields)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding row:", err)
		return
	}
	c, err := json.Marshal(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding row:", err)
		return
	}
	fmt.Fprintf(out, "%s,\"context\":%s}\n", f[:len(f)-1], c)
}

// progress logs a timestamped step to stderr.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench %s: %s\n", time.Now().Format("15:04:05.000"), fmt.Sprintf(format, args...))
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
