// Command perfbench is the repository's benchmark. It drives the real
// serving stack — serve.Server solo, or a cluster.LocalFleet behind a
// cluster.Router — in-process over loopback HTTP, built from the same
// public constructors pricesrvd and pricefleet use, checks every answer
// against a reference, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload quote_stream --seed 3 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// and then a traced window and prints the per-layer metrics. See
// perfbench/README.md for the metric and workload catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	// rec records the benchmark's spans; it is switched on only for the
	// traced window of a --trace 1 run.
	rec *recorder
}

type runResult struct {
	setup    setupTime
	windows  []*window
	untraced summary
	// traced and perLayer are set by --trace 1 runs.
	traced   *summary
	perLayer metricSet
	details  map[string]any
}

var workloads = map[string]func(runConfig) (*runResult, error){
	"volcurve_cold": runVolcurve,
	"quote_stream":  runQuoteStream,
	"risk_fleet":    runRiskFleet,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Int("seconds", 30, "length of one timed window")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced window and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result records and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, rec: newRecorder()}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	attempted, failed, wrong := 0, 0, 0
	for _, win := range res.windows {
		attempted += len(win.reqs)
		failed += win.failed()
		wrong += win.wrong()
	}
	metrics := res.untraced.endToEnd(res.setup.Ref)
	if cfg.trace {
		metrics = res.perLayer
	}
	record := map[string]any{
		"workload":   *name,
		"seconds":    *seconds,
		"trace":      *trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
		"provenance": collectProvenance(".", *seed),
		"setup":      res.setup,
		"untraced":   res.untraced,
		"traced":     res.traced,
		"details":    res.details,
		"metrics":    metrics,
	}
	if err := writeRecord(*out, *name, *seed, record, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(record)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	final, err := json.Marshal(map[string]any{
		"correct":   wrong == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", final)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeRecord appends the result record to results.jsonl under dir and,
// for a traced run, writes the run's spans next to it.
func writeRecord(dir, name string, seed int64, record map[string]any, cfg runConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)), cfg.rec.snapshot())
}
