// Command horam-bench regenerates every table and figure of the
// paper's evaluation section on the simulated machine:
//
//	horam-bench -exp all                 # everything below
//	horam-bench -exp fig5-1              # analytic gain curves
//	horam-bench -exp table5-1            # one-period overhead model
//	horam-bench -exp table5-2            # simulated machine setup
//	horam-bench -exp table5-3            # 64 MB / 25k requests
//	horam-bench -exp table5-4 -scale 1   # 1 GB / 500k requests (paper size)
//	horam-bench -exp seqvsrand           # §5.2 sequential-vs-random
//	horam-bench -exp partial             # §5.3.1 partial shuffle
//	horam-bench -exp multiuser           # §5.3.2 multi-user sharing
//	horam-bench -exp noshuffle           # §5.1 non-shuffle (Figure 5-2) case
//	horam-bench -exp shootout            # all four schemes, one trace
//	horam-bench -exp ablations           # Z sweep + scheduler schedule
//	horam-bench -exp concurrency         # serving throughput vs TCP clients
//	horam-bench -exp shard               # sharded-engine throughput vs shard count
//	horam-bench -exp latency             # per-request tail latency, monolithic vs incremental shuffle
//	horam-bench -exp persist             # file-backed storage vs in-memory simulator
//	horam-bench -exp kv                  # oblivious key-value layer: logical ops/s vs shard count
//	horam-bench -exp obs                 # observability overhead: instrumented vs bare engine
//	horam-bench -exp timing              # constant-time mode: timing-variance distinguishability
//
// Absolute durations come from the calibrated device models (Table
// 5-2); the claims under reproduction are the ratios.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/timing"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig5-1, table5-1, table5-2, table5-3, table5-4, seqvsrand, partial, multiuser, ablations, concurrency, shard, latency, persist, kv, obs, timing")
	scale := flag.Float64("scale", 0.125, "scale factor for table5-4 (1 = paper size: 1 GB, 500k requests)")
	crypto := flag.Bool("crypto", false, "run with real AES-GCM sealing instead of the null sealer")
	reqs := flag.Int("reqs", 200, "requests per client for -exp concurrency")
	out := flag.String("out", "", "also write the -exp shard or -exp latency sweep as a JSON baseline to this path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this path (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "horam-bench:", err)
			os.Exit(1)
		}
		defer f.Close() //horam:errok the profile is flushed by StopCPUProfile; the process is exiting
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "horam-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(*exp, *scale, *crypto, *reqs, *out)

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr == nil {
			runtime.GC() // settle live-heap numbers before the snapshot
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil && err == nil {
			err = merr
		}
	}

	if err != nil {
		pprof.StopCPUProfile() // flush before the hard exit skips defers
		fmt.Fprintln(os.Stderr, "horam-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, crypto bool, reqs int, out string) error {
	all := exp == "all"
	ran := false

	if all || exp == "fig5-1" {
		ran = true
		fmt.Print(bench.FormatFigure51(bench.RunFigure51()))
		fmt.Println()
	}
	if all || exp == "table5-1" {
		ran = true
		fmt.Print(bench.FormatTable51())
		fmt.Println()
	}
	if all || exp == "table5-2" {
		ran = true
		rows, err := bench.RunTable52()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable52(rows))
		fmt.Println()
	}
	if all || exp == "table5-3" {
		ran = true
		p := bench.Table53Params()
		p.Crypto = crypto
		c, err := bench.RunComparison(p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatComparison(c))
		fmt.Println()
	}
	if all || exp == "table5-4" {
		ran = true
		p := bench.Table54Params(scale)
		p.Crypto = crypto
		c, err := bench.RunComparison(p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatComparison(c))
		if scale != 1 {
			fmt.Printf("(scaled by %.3g; pass -scale 1 for the paper's 1 GB / 500k requests)\n", scale)
		}
		fmt.Println()
	}
	if all || exp == "seqvsrand" {
		ran = true
		r, err := bench.RunSeqVsRand()
		if err != nil {
			return err
		}
		fmt.Println("== §5.2: sequential vs random access on the HDD model ==")
		fmt.Printf("sweep of %d x 1 KB slots: sequential %v, random %v -> random is %.1fx slower\n\n",
			r.Slots, r.Sequential, r.Random, r.Ratio)
	}
	if all || exp == "partial" {
		ran = true
		rows, err := bench.RunPartialShuffle([]float64{1, 0.5, 0.25, 0.125})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatPartialShuffle(rows))
		fmt.Println()
	}
	if all || exp == "multiuser" {
		ran = true
		rows, err := bench.RunMultiUser([]int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatMultiUser(rows))
		fmt.Println()
	}
	if all || exp == "noshuffle" {
		ran = true
		r, err := bench.RunNoShuffleCase()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatNoShuffle(r))
		fmt.Println()
	}
	if all || exp == "shootout" {
		ran = true
		rows, err := bench.RunShootout()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatShootout(rows))
		fmt.Println()
	}
	if all || exp == "ablations" {
		ran = true
		z, err := bench.RunZSweep([]int{2, 4, 6})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatZSweep(z))
		fmt.Println()
		s, err := bench.RunStageAblation()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatStageAblation(s))
		fmt.Println()
		d, err := bench.RunPrefetchDepth([]int{6, 12, 24, 48})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatPrefetchDepth(d))
		fmt.Println()
		algs, err := bench.RunShuffleAlgs()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatShuffleAlgs(algs))
		fmt.Println()
	}
	if all || exp == "concurrency" {
		ran = true
		rows, err := bench.RunConcurrency([]int{1, 2, 4, 8, 16}, reqs)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatConcurrency(rows))
		fmt.Println()
	}
	if all || exp == "shard" {
		ran = true
		p := bench.DefaultShardParams()
		rows, err := bench.RunShard([]int{1, 2, 4, 8}, p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatShard(rows, p))
		fmt.Println()
		if out != "" {
			if err := bench.WriteShardJSON(out, rows, p); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if all || exp == "latency" {
		ran = true
		p := bench.DefaultLatencyParams()
		rows, err := bench.RunLatency(p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatLatency(rows, p))
		fmt.Println()
		if exp == "latency" && out != "" {
			if err := bench.WriteLatencyJSON(out, rows, p); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if all || exp == "persist" {
		ran = true
		p := bench.DefaultPersistParams()
		dev, rows, err := bench.RunPersist(p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatPersist(dev, rows, p))
		fmt.Println()
		if exp == "persist" && out != "" {
			if err := bench.WritePersistJSON(out, dev, rows, p); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if all || exp == "kv" {
		ran = true
		p := bench.DefaultKVParams()
		rows, err := bench.RunKV([]int{1, 2, 4}, p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatKV(rows, p))
		fmt.Println()
		if exp == "kv" && out != "" {
			if err := bench.WriteKVJSON(out, rows, p); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if exp == "obs" {
		// Not part of -exp all: like timing, this measures HOST-machine
		// overhead (instrumentation cost), not the simulated device
		// models the paper figures come from.
		ran = true
		p := bench.DefaultObsParams()
		rows, err := bench.RunObs(p)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatObs(rows, p))
		fmt.Println()
		if out != "" {
			if err := bench.WriteObsJSON(out, rows, p); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if exp == "timing" {
		// Deliberately NOT part of -exp all: the experiment measures
		// the HOST machine's timing noise, not the simulated device
		// models the paper figures come from.
		ran = true
		rep, err := bench.RunTiming(timing.Options{}, bench.DefaultTimingThreshold)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTiming(rep))
		fmt.Println()
		if out != "" {
			if err := bench.WriteTimingJSON(out, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
