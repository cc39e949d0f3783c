// Command sealergate is the sealer-throughput regression gate. It
// reads `go test -bench` output on stdin, extracts the MB/s figure of
// every benchmark line, and compares each against the committed
// baseline (BENCH_sealer.json): the gate fails when any benchmark
// falls below min-ratio of its baseline throughput, when a baseline
// benchmark did not run, or when a benchmark that ran has no baseline.
//
// With -update it instead rewrites the baseline from the measured
// run. Multiple -count repetitions are collapsed to the fastest run
// per benchmark (benchstat-style), so scheduler noise on a loaded
// machine biases the gate toward passing, never toward flaking.
//
// Throughput is hardware-dependent; a baseline is only meaningful on
// machines comparable to the one that wrote it. CI regenerates its
// comparison on the runner class recorded in the baseline's cpu
// fields; set SEALER_GATE_SKIP=1 (see scripts/sealer_gate.sh) when
// measuring on incomparable hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed BENCH_sealer.json shape.
type Baseline struct {
	Experiment string             `json:"experiment"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUs       int                `json:"cpus"`
	Benchmarks map[string]float64 `json:"benchmarks_mb_per_s"`
}

// benchLine matches one `go test -bench` result line that reports
// throughput, e.g.
//
//	BenchmarkSealer/Seal/256-4   309852   732.8 ns/op   349.34 MB/s   ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) MB/s`)

func parse(f *os.File) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		mbps, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad MB/s in %q: %w", sc.Text(), err)
		}
		if mbps > out[m[1]] { // fastest of -count repetitions
			out[m[1]] = mbps
		}
	}
	return out, sc.Err()
}

func main() {
	baseline := flag.String("baseline", "BENCH_sealer.json", "committed throughput baseline")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	minRatio := flag.Float64("min-ratio", 0.80, "fail when measured/baseline falls below this")
	flag.Parse()

	got, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sealergate:", err)
		os.Exit(1)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "sealergate: no benchmark throughput lines on stdin")
		os.Exit(1)
	}

	if *update {
		b := Baseline{
			Experiment: "sealer",
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUs:       runtime.NumCPU(),
			Benchmarks: got,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sealergate:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sealergate:", err)
			os.Exit(1)
		}
		fmt.Printf("sealergate: wrote %s (%d benchmarks)\n", *baseline, len(got))
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sealergate:", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "sealergate: %s: %v\n", *baseline, err)
		os.Exit(1)
	}

	report, failed := compare(base.Benchmarks, got, *minRatio)
	fmt.Print(report)
	if failed {
		fmt.Fprintf(os.Stderr, "sealergate: sealer throughput regressed below %.0f%% of %s, or a benchmark has no baseline\n", *minRatio*100, *baseline)
		os.Exit(1)
	}
}

// compare gates the measured throughputs against the baseline. It
// fails on any baseline benchmark that is missing from the run or
// below minRatio of its baseline, and on any measured benchmark that
// has no baseline: a renamed or new benchmark would otherwise go
// ungated without a word. It returns one report line per benchmark.
func compare(base, got map[string]float64, minRatio float64) (string, bool) {
	var b strings.Builder
	failed := false
	for _, name := range sortedKeys(base) {
		want := base[name]
		have, ok := got[name]
		if !ok {
			fmt.Fprintf(&b, "FAIL %-40s baseline %8.1f MB/s, missing from this run\n", name, want)
			failed = true
			continue
		}
		ratio := have / want
		status := "ok  "
		if ratio < minRatio {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(&b, "%s %-40s %8.1f MB/s vs baseline %8.1f MB/s (%.2fx, floor %.2fx)\n",
			status, name, have, want, ratio, minRatio)
	}
	for _, name := range sortedKeys(got) {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&b, "FAIL %-40s %8.1f MB/s, no baseline (add it with -update)\n", name, got[name])
			failed = true
		}
	}
	return b.String(), failed
}

func sortedKeys(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
