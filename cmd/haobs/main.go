// Command haobs is the cluster observatory: it polls every node's
// /metrics, /trace, and /healthz, correlates the per-node flight
// recorders into global transaction timelines, and renders a live
// availability spectrum — commit/abort rates and latency quantiles per
// transaction class, a per-fragment hotspot table with origin-node
// breakdown, and partition detection from peer connectivity.
//
//	haobs -targets 127.0.0.1:8100,127.0.0.1:8101,127.0.0.1:8102 -interval 2s
//	haobs -targets ... -once -out spectrum.json
//
// With -gobench it instead converts `go test -bench` output into the
// fragdb-bench/1 trajectory artifact:
//
//	haobs -gobench bench-apply.txt,bench-wire.txt -pr 8 -benchout bench-go-pr8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fragdb/internal/obs"
)

func main() {
	var (
		targets   = flag.String("targets", "127.0.0.1:8100,127.0.0.1:8101,127.0.0.1:8102", "comma-separated host:port of every node's HTTP endpoint")
		interval  = flag.Duration("interval", 2*time.Second, "poll interval")
		duration  = flag.Duration("duration", 0, "total watch time (0 = until interrupted)")
		once      = flag.Bool("once", false, "poll once, print, and exit")
		out       = flag.String("out", "", "write the latest snapshot JSON here after every poll")
		traceN    = flag.Int("trace-n", 0, "trace tail size per scrape (0 = the node's full ring)")
		top       = flag.Int("top", 8, "hotspot rows to print")
		timelines = flag.Int("timelines", 3, "cross-node timelines to print per poll")

		gobench  = flag.String("gobench", "", "convert `go test -bench` output files (comma-separated) to a bench artifact and exit")
		benchOut = flag.String("benchout", "", "bench artifact path (with -gobench)")
		pr       = flag.Int("pr", 0, "PR number stamped into the bench artifact")
		commit   = flag.String("commit", "", "git commit stamped into the bench artifact")
	)
	flag.Parse()

	if *gobench != "" {
		os.Exit(runBenchConvert(*gobench, *benchOut, *pr, *commit))
	}
	os.Exit(watch(strings.Split(*targets, ","), *interval, *duration, *once, *out, *traceN, *top, *timelines))
}

// watch is the live-observatory loop.
func watch(targets []string, interval, duration time.Duration, once bool, out string, traceN, top, timelines int) int {
	client := &obs.Client{TraceN: traceN}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}

	var prev *obs.Snapshot
	var prevAt time.Time
	// prevPages keeps each target's raw metrics page so the hotspot
	// table can show per-second rates (traffic NOW) instead of
	// since-boot totals from the second poll on.
	prevPages := map[string]obs.Metrics{}
	// history accumulates trace tails across polls so a timeline whose
	// head was scraped two polls ago still correlates with its tail
	// now; MergeTimelines dedupes the overlap. Bounded so a long watch
	// does not grow without limit.
	var history []obs.TraceTail
	const historyCap = 256

	poll := func() {
		states := client.ScrapeAll(targets)
		now := time.Now()
		for _, st := range states {
			history = append(history, st.Trace...)
		}
		if len(history) > historyCap {
			history = history[len(history)-historyCap:]
		}
		snap := obs.BuildSnapshot(states, now.UnixMilli())
		snap.Timelines = snap.Timelines[:0]
		for _, tl := range obs.MergeTimelines(history) {
			snap.Timelines = append(snap.Timelines, obs.Summarize(tl))
		}
		if prev != nil {
			dt := now.Sub(prevAt).Seconds()
			snap.FillRates(prev, dt)
			// First poll (and -once) keeps the cumulative hotspot table;
			// later polls switch to rates so migrations show up as the
			// traffic moving, not as frozen historical totals.
			if rated := obs.RatedHotspots(prevPages, states, dt); rated != nil {
				snap.Hotspots = rated
			}
		}
		for _, st := range states {
			if st.Healthy {
				prevPages[st.Target] = st.Metrics
			}
		}
		fmt.Printf("=== %s ===\n%s\n", now.Format(time.TimeOnly), snap.Render(top, timelines))
		if out != "" {
			if err := writeSnapshot(out, snap); err != nil {
				log.Printf("haobs: write %s: %v", out, err)
			}
		}
		prev, prevAt = snap, now
	}

	poll()
	if once {
		return 0
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			poll()
		case <-sig:
			return 0
		case <-deadline:
			return 0
		}
	}
}

// writeSnapshot writes atomically (tmp + rename) so an archiver that
// copies the file mid-poll never sees a torn JSON document.
func writeSnapshot(path string, snap *obs.Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runBenchConvert parses go-bench output files into the versioned
// bench artifact.
func runBenchConvert(files, benchOut string, pr int, commit string) int {
	var results []obs.BenchResult
	for _, f := range strings.Split(files, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			log.Printf("haobs: %v", err)
			return 1
		}
		rs, err := obs.ParseGoBench(fh)
		fh.Close()
		if err != nil {
			log.Printf("haobs: parse %s: %v", f, err)
			return 1
		}
		results = append(results, rs...)
	}
	if len(results) == 0 {
		log.Printf("haobs: no benchmark results found in %s", files)
		return 1
	}

	bf := obs.NewBenchFile(pr, "go-bench", commit, time.Now().UnixMilli(), results)
	if benchOut != "" {
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			log.Printf("haobs: %v", err)
			return 1
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Printf("haobs: %v", err)
			return 1
		}
		fmt.Printf("wrote %s (%d results)\n", benchOut, len(bf.Results))
	}
	return 0
}
