// Tail-latency benchmark: per-request latency distributions under the
// monolithic stop-the-world shuffle versus the deamortized incremental
// pipeline. Aggregate throughput (BENCH_shard.json) hides the shuffle
// entirely — the paper's own short-data-block analysis makes tail
// latency, not the mean, the binding constraint for batched serving —
// so this experiment measures what a single request experiences:
//
//   - sim latency: the owning shard's virtual-clock span from ROB
//     submission to completion, including any shuffle work that ran in
//     between. In monolithic mode a request that lands behind the
//     period pays the whole O(window·partition) pass; the incremental
//     pipeline bounds the work any cycle performs by O(one partition),
//     so the same request pays a handful of quanta instead.
//   - wall latency: the real elapsed time of the request's batch —
//     what a serving-layer client would observe on this host.
package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
	"repro/internal/horam"
)

// LatencyParams sizes one latency sweep.
type LatencyParams struct {
	Blocks    int64
	BlockSize int
	MemBytes  int64 // total across shards
	Requests  int
	BatchSize int
	Shards    []int
	Seed      string
}

// DefaultLatencyParams is the committed-baseline geometry: 64 Ki of
// 256 B blocks and a 1 MiB memory tier, so every shard crosses several
// shuffle periods and the per-shard shuffle window (√N partitions) is
// large enough that the monolithic pass visibly dwarfs one partition
// quantum.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{
		Blocks:    65536,
		BlockSize: 256,
		MemBytes:  1 << 20,
		Requests:  12000,
		BatchSize: 64,
		Shards:    []int{1, 4},
		Seed:      "latency-bench",
	}
}

// LatencyRow is one (mode, shard count) measurement.
type LatencyRow struct {
	Mode     string `json:"mode"` // "monolithic" or "incremental"
	Shards   int    `json:"shards"`
	Requests int    `json:"requests"`

	// Per-request simulated latency (virtual device time).
	SimP50 time.Duration `json:"sim_p50_ns"`
	SimP99 time.Duration `json:"sim_p99_ns"`
	SimMax time.Duration `json:"sim_max_ns"`

	// Per-request wall latency (the request's batch round-trip).
	WallP50 time.Duration `json:"wall_p50_ns"`
	WallP99 time.Duration `json:"wall_p99_ns"`
	WallMax time.Duration `json:"wall_max_ns"`

	// Whole-run totals, to show deamortization does not buy its tail
	// with throughput: the period's work is the same, only its
	// placement changes.
	SimTotal  time.Duration `json:"sim_total_ns"` // slowest shard
	WallTotal time.Duration `json:"wall_total_ns"`

	Shuffles     int64         `json:"shuffles"`
	Quanta       int64         `json:"quanta"`
	MaxCycleTime time.Duration `json:"max_cycle_ns"`
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// RunLatency sweeps both shuffle modes over the shard counts on the
// same seeded workload.
func RunLatency(p LatencyParams) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, shards := range p.Shards {
		for _, mode := range []struct {
			name       string
			monolithic bool
		}{{"monolithic", true}, {"incremental", false}} {
			row, err := runLatencyOne(shards, mode.monolithic, mode.name, p)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runLatencyOne(shards int, monolithic bool, modeName string, p LatencyParams) (LatencyRow, error) {
	// A flat group size (the obliviousness tests' schedule) keeps every
	// access cycle's service rate constant, so the distributions compare
	// the shuffle placement and nothing else: with the paper's staged
	// schedule the c=1 cold phase would bound the tail by the ROB drain
	// rate in both modes and blur the effect under measurement.
	e, err := engine.New(engine.Options{
		Blocks:            p.Blocks,
		BlockSize:         p.BlockSize,
		MemoryBytes:       p.MemBytes,
		Insecure:          true,
		Seed:              fmt.Sprintf("%s-%d", p.Seed, shards),
		Shards:            shards,
		MonolithicShuffle: monolithic,
		Stages:            []horam.Stage{{C: 3, Frac: 1}},
	})
	if err != nil {
		return LatencyRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over

	// The shard benchmark's workload shape: 80/20 hot-spot reads with a
	// write every fourth request.
	rng := blockcipher.NewRNGFromString(p.Seed + "-wl")
	hot := p.Blocks / 20
	if hot < 1 {
		hot = 1
	}
	payload := bytes.Repeat([]byte{0x5a}, p.BlockSize)
	reqs := make([]*engine.Request, p.Requests)
	for i := range reqs {
		var addr int64
		if rng.Intn(10) < 8 {
			addr = rng.Int63n(hot)
		} else {
			addr = rng.Int63n(p.Blocks)
		}
		if i%4 == 3 {
			reqs[i] = &engine.Request{Op: engine.OpWrite, Addr: addr, Data: payload}
		} else {
			reqs[i] = &engine.Request{Op: engine.OpRead, Addr: addr}
		}
	}

	simLat := make([]time.Duration, 0, p.Requests)
	wallLat := make([]time.Duration, 0, p.Requests)
	start := time.Now()
	for off := 0; off < len(reqs); off += p.BatchSize {
		end := off + p.BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		b0 := time.Now()
		if err := e.Batch(reqs[off:end]); err != nil {
			return LatencyRow{}, err
		}
		bd := time.Since(b0)
		for _, r := range reqs[off:end] {
			simLat = append(simLat, r.DoneSim-r.SubmitSim)
			wallLat = append(wallLat, bd)
		}
	}
	wall := time.Since(start)

	sort.Slice(simLat, func(i, j int) bool { return simLat[i] < simLat[j] })
	sort.Slice(wallLat, func(i, j int) bool { return wallLat[i] < wallLat[j] })
	sum := e.Stats()
	return LatencyRow{
		Mode:         modeName,
		Shards:       shards,
		Requests:     p.Requests,
		SimP50:       percentile(simLat, 0.50),
		SimP99:       percentile(simLat, 0.99),
		SimMax:       simLat[len(simLat)-1],
		WallP50:      percentile(wallLat, 0.50),
		WallP99:      percentile(wallLat, 0.99),
		WallMax:      wallLat[len(wallLat)-1],
		SimTotal:     sum.SimTime,
		WallTotal:    wall,
		Shuffles:     sum.Shuffles,
		Quanta:       sum.Quanta,
		MaxCycleTime: sum.MaxCycleTime,
	}, nil
}

// FormatLatency renders the sweep with the monolithic→incremental
// improvement ratios per shard count.
func FormatLatency(rows []LatencyRow, p LatencyParams) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== shuffle deamortization: per-request latency, monolithic vs incremental (%d x %d B blocks, %d KiB memory, %d requests, batch %d) ==\n",
		p.Blocks, p.BlockSize, p.MemBytes>>10, p.Requests, p.BatchSize)
	fmt.Fprintf(&b, "%7s %12s %10s %10s %10s %10s %10s %10s %10s %9s\n",
		"shards", "mode", "sim p50", "sim p99", "sim max", "wall p99", "wall max", "max cycle", "sim total", "shuffles")
	byShard := map[int]map[string]LatencyRow{}
	for _, r := range rows {
		if byShard[r.Shards] == nil {
			byShard[r.Shards] = map[string]LatencyRow{}
		}
		byShard[r.Shards][r.Mode] = r
		fmt.Fprintf(&b, "%7d %12s %10s %10s %10s %10s %10s %10s %10s %9d\n",
			r.Shards, r.Mode,
			r.SimP50.Round(time.Microsecond), r.SimP99.Round(time.Microsecond), r.SimMax.Round(time.Microsecond),
			r.WallP99.Round(time.Microsecond), r.WallMax.Round(time.Microsecond),
			r.MaxCycleTime.Round(time.Microsecond), r.SimTotal.Round(time.Millisecond), r.Shuffles)
	}
	for _, r := range rows {
		mono, ok1 := byShard[r.Shards]["monolithic"]
		incr, ok2 := byShard[r.Shards]["incremental"]
		if !ok1 || !ok2 || r.Mode != "incremental" {
			continue
		}
		fmt.Fprintf(&b, "shards=%d: incremental improves sim p99 %.1fx, sim max %.1fx, max-cycle cost %.1fx (sim total %.2fx)\n",
			r.Shards,
			float64(mono.SimP99)/float64(incr.SimP99),
			float64(mono.SimMax)/float64(incr.SimMax),
			float64(mono.MaxCycleTime)/float64(incr.MaxCycleTime),
			float64(mono.SimTotal)/float64(incr.SimTotal))
	}
	fmt.Fprintf(&b, "sim latency = shard virtual-clock span submit->complete; wall latency = the\n")
	fmt.Fprintf(&b, "request's batch round-trip on this host (GOMAXPROCS=%d).\n", runtime.GOMAXPROCS(0))
	return b.String()
}
