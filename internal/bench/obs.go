// Observability-overhead benchmark: the same engine workload run
// bare, with the metrics registry wired, and with the tracer armed on
// top — the cost story for leaving instrumentation on in production.
// The instruments are single atomic ops and the tracer's disabled
// path is one atomic load, so the wired modes should sit within noise
// of bare; this experiment is the regression guard on that claim.
package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ObsParams sizes one observability-overhead run.
type ObsParams struct {
	Blocks    int64  `json:"blocks"`
	BlockSize int    `json:"blocksize"`
	MemBytes  int64  `json:"mem_bytes"`
	Shards    int    `json:"shards"`
	Requests  int    `json:"requests"`
	BatchSize int    `json:"batch_size"`
	Seed      string `json:"seed"`
}

// DefaultObsParams reuses the shard-bench geometry at 2 shards: large
// enough to cross shuffle periods, so the instrumented paths include
// the quantum and leveling hooks, not just the batch epilogue.
func DefaultObsParams() ObsParams {
	return ObsParams{
		Blocks:    16384,
		BlockSize: 256,
		MemBytes:  1 << 20,
		Shards:    2,
		Requests:  12000,
		BatchSize: 384,
		Seed:      "obs-bench",
	}
}

// ObsRow is one instrumentation mode's measurement.
type ObsRow struct {
	Mode        string        `json:"mode"` // bare | registry | registry+trace
	Requests    int           `json:"requests"`
	Wall        time.Duration `json:"wall_ns"`
	WallTput    float64       `json:"wall_req_per_s"`
	NsPerOp     float64       `json:"ns_per_op"`
	OverheadPct float64       `json:"overhead_pct"` // vs the bare row
	Spans       int           `json:"spans"`        // tracer spans recorded (trace mode)
}

// RunObs measures the three modes on one seeded workload. Each mode
// gets a fresh engine (same seed, same request stream), so the only
// variable is the instrumentation wiring.
func RunObs(p ObsParams) ([]ObsRow, error) {
	modes := []string{"bare", "registry", "registry+trace"}
	rows := make([]ObsRow, 0, len(modes))
	for _, mode := range modes {
		row, err := runObsOne(mode, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	base := rows[0].Wall.Seconds()
	for i := range rows {
		rows[i].OverheadPct = (rows[i].Wall.Seconds() - base) / base * 100
	}
	return rows, nil
}

func runObsOne(mode string, p ObsParams) (ObsRow, error) {
	e, err := engine.New(engine.Options{
		Blocks:      p.Blocks,
		BlockSize:   p.BlockSize,
		MemoryBytes: p.MemBytes,
		Insecure:    true,
		Seed:        p.Seed,
		Shards:      p.Shards,
	})
	if err != nil {
		return ObsRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over

	var tr *obs.Tracer
	switch mode {
	case "bare":
		// No Observe call: nil instruments, the no-op fast path.
	case "registry":
		e.Observe(obs.NewRegistry(), nil)
	case "registry+trace":
		tr = obs.NewTracer(1 << 17)
		e.Observe(obs.NewRegistry(), tr)
		tr.Start()
	default:
		return ObsRow{}, fmt.Errorf("unknown obs mode %q", mode)
	}

	rng := blockcipher.NewRNGFromString(p.Seed + "-wl")
	payload := bytes.Repeat([]byte{0x5a}, p.BlockSize)
	reqs := make([]*engine.Request, p.Requests)
	for i := range reqs {
		addr := rng.Int63n(p.Blocks)
		if i%4 == 3 {
			reqs[i] = &engine.Request{Op: engine.OpWrite, Addr: addr, Data: payload}
		} else {
			reqs[i] = &engine.Request{Op: engine.OpRead, Addr: addr}
		}
	}

	start := time.Now()
	for off := 0; off < len(reqs); off += p.BatchSize {
		end := off + p.BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := e.Batch(reqs[off:end]); err != nil {
			return ObsRow{}, err
		}
	}
	wall := time.Since(start)

	row := ObsRow{
		Mode:     mode,
		Requests: p.Requests,
		Wall:     wall,
		WallTput: float64(p.Requests) / wall.Seconds(),
		NsPerOp:  float64(wall.Nanoseconds()) / float64(p.Requests),
	}
	if tr != nil {
		tr.Stop()
		row.Spans = tr.Len()
	}
	return row, nil
}

// FormatObs renders the comparison.
func FormatObs(rows []ObsRow, p ObsParams) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== observability overhead: instrumented vs bare engine (%d x %d B blocks, %d shards, %d requests) ==\n",
		p.Blocks, p.BlockSize, p.Shards, p.Requests)
	fmt.Fprintf(&b, "%16s %12s %12s %10s %10s %8s\n", "mode", "wall", "req/s", "ns/op", "overhead", "spans")
	for _, r := range rows {
		fmt.Fprintf(&b, "%16s %12s %12.0f %10.0f %+9.1f%% %8d\n",
			r.Mode, r.Wall.Round(time.Millisecond), r.WallTput, r.NsPerOp, r.OverheadPct, r.Spans)
	}
	fmt.Fprintf(&b, "registry = atomic counters/histograms wired into the batch, leveling and\n")
	fmt.Fprintf(&b, "quantum paths; trace additionally records one span per window/batch/drain.\n")
	return b.String()
}
