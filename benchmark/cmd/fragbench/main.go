// Command fragbench is the repository's benchmark: it drives real
// 3-node fragdb clusters — spawned hanode processes for the HTTP path,
// in-process deploy nodes over loopback rtnet.TCP for the rest —
// through four fixed workloads, prints every metric by name and unit,
// checks every replica against the acknowledged operations and exits
// non-zero when a check fails. README.md explains the metrics.
//
//	bash benchmark/run.sh --workload direct_mixed --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                      # all workloads, untraced then traced
//	bash benchmark/run.sh -calibrate 10        # run-to-run spread against the recorded bounds
//	bash benchmark/run.sh -compare a.json b.json
//
// Everything it measures it measures from outside the engine: it times
// calls into public functions and reads public counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"fragdb/internal/obs"
)

// warmUp precedes every measured window; a window shorter than twice
// this (the smoke tests) gets a proportionally shorter one.
const warmUp = 2 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	out       string
	root      string
	pr        int
	calibrate int
	compare   bool
}

// buildDir is where run.sh put the binaries; scratch files go there too.
func (o options) buildDir() string { return filepath.Join(o.root, ".bench_build") }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var duration time.Duration
	fs := flag.NewFlagSet("fragbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: http_mixed, direct_mixed, direct_remote or partition_heal (default: all, untraced then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the operation sequence")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.DurationVar(&duration, "duration", 0, "length of the measured window as a duration; overrides -seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "file a traced run writes its spans to (default <root>/.bench_build/spans-<workload>.jsonl)")
	fs.StringVar(&o.out, "out", "", "also write the results as a fragdb-bench/1 file")
	fs.StringVar(&o.root, "root", ".", "root of the checkout: BENCHMARK.json, benchmark/bounds.json, and .bench_build/ with the hanode run.sh built")
	fs.IntVar(&o.pr, "pr", 0, "PR number stamped into the -out file")
	fs.IntVar(&o.calibrate, "calibrate", 0, "run each workload this many times and hold the recorded bounds against the measured spread")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: fragbench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if duration > 0 {
		o.seconds = duration.Seconds()
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "fragbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// An interrupt cancels the run; the clusters are shut down and
	// waited for on the way out, so no hanode outlives the benchmark.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "fragbench: -compare takes two result files")
			return 2
		}
		var bounds boundsFile
		if bounds, err = readBounds(o.boundsPath()); err == nil {
			var worse bool
			if worse, err = compare(stdout, bounds, fs.Arg(0), fs.Arg(1)); err == nil && worse {
				return 1
			}
		}
	case o.calibrate > 0:
		err = calibrate(ctx, o, stdout, stderr)
	case o.workload == "":
		err = runAll(ctx, o, stdout, stderr)
	default: // the driver's entry
		err = runOne(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fragbench:", err)
		return 1
	}
	return 0
}

// planFor sizes one run.
func planFor(w workload, seed int64, seconds float64, traced bool) plan {
	window := time.Duration(seconds * float64(time.Second))
	return plan{w: w, seed: seed, window: window, warm: min(warmUp, window/2), traced: traced}
}

// runOne is the driver's entry: one workload, one run, the table on
// standard error and the contract's JSON object as the last line of
// standard output. A failed replica-state check still prints the line,
// with correct false, and then fails the command.
func runOne(ctx context.Context, o options, stdout, stderr io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	traced := o.trace == 1
	spans := o.traceOut
	if traced && spans == "" {
		spans = filepath.Join(o.buildDir(), "spans-"+w.name+".jsonl")
	}
	res, err := runOnce(ctx, planFor(w, o.seed, o.seconds, traced), filepath.Join(o.buildDir(), "hanode"), spans)
	if err != nil {
		return err
	}
	return emit(res, o, stdout, stderr)
}

// emit prints a finished run and turns a failed check into the
// command's failure.
func emit(res *result, o options, stdout, stderr io.Writer) error {
	printTable(stderr, res)
	if o.out != "" {
		if err := writeBenchFile(o.out, o.pr, []obs.BenchResult{benchResult(res)}); err != nil {
			return err
		}
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.checkErr != nil {
		return res.checkErr
	}
	return nil
}
