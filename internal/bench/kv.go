// Oblivious key–value benchmark: logical KV throughput versus shard
// count through internal/okv over internal/engine. Each logical
// operation costs one fixed pipeline of block batches (2S slot reads,
// E extent reads, 1+E writes — reported per row as blocks/op), so KV
// throughput is the block-store throughput divided by a constant; the
// sweep shows how much of the engine's shard scaling the KV layer
// keeps. As in the shard sweep, sim req/s divides by the SLOWEST
// shard's virtual device time (shards model independent hardware) and
// wall req/s reflects host-core parallelism.
package bench

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
	"repro/internal/okv"
)

// KVParams sizes one KV throughput sweep.
type KVParams struct {
	Blocks         int64
	BlockSize      int
	MemBytes       int64 // total across shards
	SlotsPerBucket int
	MaxValueBytes  int
	SeedKeys       int // keys inserted before measurement
	Ops            int // measured mixed operations, split across Workers
	Workers        int // concurrent clients driving the measured phase
	Seed           string
}

// DefaultKVParams is the committed-baseline geometry: the shard
// sweep's block store (16 Ki × 256 B, 1 MiB memory) carrying a table
// of 4-slot buckets with 512 B values (2 extent blocks per slot), at
// a ~19% seeded load factor, under a 60/30/10 get/set/del mix.
func DefaultKVParams() KVParams {
	return KVParams{
		Blocks:         16384,
		BlockSize:      256,
		MemBytes:       1 << 20,
		SlotsPerBucket: 4,
		MaxValueBytes:  512,
		SeedKeys:       1024,
		Ops:            1536,
		Workers:        8,
		Seed:           "kv-bench",
	}
}

// KVRow is one shard-count measurement.
type KVRow struct {
	Shards      int           `json:"shards"`
	Ops         int           `json:"ops"`
	BlocksPerOp int           `json:"blocks_per_op"` // fixed pipeline size
	Wall        time.Duration `json:"wall_ns"`
	WallTput    float64       `json:"wall_ops_per_s"`
	SimTime     time.Duration `json:"sim_ns"` // measured phase, max over shard clocks
	SimTput     float64       `json:"sim_ops_per_s"`
	Gets        int64         `json:"gets"`
	Sets        int64         `json:"sets"`
	Dels        int64         `json:"dels"`
	Misses      int64         `json:"misses"`
	LiveKeys    int64         `json:"live_keys"`
	Capacity    int64         `json:"capacity"`
}

// RunKV sweeps the shard counts on the same seeded logical workload.
func RunKV(shardCounts []int, p KVParams) ([]KVRow, error) {
	rows := make([]KVRow, 0, len(shardCounts))
	for _, s := range shardCounts {
		row, err := runKVOne(s, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runKVOne(shards int, p KVParams) (KVRow, error) {
	e, err := engine.New(engine.Options{
		Blocks:      p.Blocks,
		BlockSize:   p.BlockSize,
		MemoryBytes: p.MemBytes,
		Insecure:    true,
		Seed:        fmt.Sprintf("%s-%d", p.Seed, shards),
		Shards:      shards,
	})
	if err != nil {
		return KVRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over
	s, err := okv.New(okv.Options{
		Backend:        e,
		SlotsPerBucket: p.SlotsPerBucket,
		MaxValueBytes:  p.MaxValueBytes,
		Insecure:       true,
		Seed:           p.Seed,
	})
	if err != nil {
		return KVRow{}, err
	}

	// Seed phase: a resident population so the measured mix sees
	// mostly hits, like a warmed cache of user records.
	key := func(i int) []byte { return []byte(fmt.Sprintf("user-%06d", i)) }
	rng := blockcipher.NewRNGFromString(p.Seed + "-wl")
	val := func(i int) []byte {
		n := 1 + rng.Intn(p.MaxValueBytes)
		return bytes.Repeat([]byte{byte(i)}, n)
	}
	for i := 0; i < p.SeedKeys; i++ {
		if err := s.Set(key(i), val(i)); err != nil {
			return KVRow{}, fmt.Errorf("seed key %d: %w", i, err)
		}
	}

	// Measured phase: Workers concurrent clients, each running its
	// share of a 60/30/10 get/set/del mix (gets are 80/20 hot-spotted
	// over the residents with ~9% ghosts). Concurrency is what the
	// layer is built for: okv's bucket-striped locking lets disjoint
	// ops overlap, so their fixed pipelines coalesce in the shards'
	// reorder buffers.
	preStats := s.Stats()
	preSim := e.Stats().SimTime
	hot := p.SeedKeys / 20
	if hot < 1 {
		hot = 1
	}
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := blockcipher.NewRNGFromString(fmt.Sprintf("%s-worker-%d", p.Seed, w))
			wval := func(i int) []byte {
				n := 1 + wrng.Intn(p.MaxValueBytes)
				return bytes.Repeat([]byte{byte(i)}, n)
			}
			ops := p.Ops / workers
			if w < p.Ops%workers {
				ops++
			}
			for i := 0; i < ops; i++ {
				switch r := wrng.Intn(10); {
				case r < 6:
					idx := wrng.Intn(p.SeedKeys * 11 / 10) // ~9% ghosts
					if wrng.Intn(10) < 8 {
						idx = wrng.Intn(hot)
					}
					if _, _, err := s.Get(key(idx)); err != nil {
						errs[w] = err
						return
					}
				case r < 9:
					if err := s.Set(key(wrng.Intn(p.SeedKeys)), wval(i)); err != nil {
						errs[w] = err
						return
					}
				default:
					if _, err := s.Del(key(wrng.Intn(p.SeedKeys))); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return KVRow{}, err
		}
	}

	sum := e.Stats()
	st := s.Stats()
	shape := s.Shape()
	row := KVRow{
		Shards:      shards,
		Ops:         p.Ops,
		BlocksPerOp: shape.LookupReads + shape.ExtentReads + shape.Writes,
		Wall:        wall,
		WallTput:    float64(p.Ops) / wall.Seconds(),
		SimTime:     sum.SimTime - preSim,
		Gets:        st.Gets - preStats.Gets,
		Sets:        st.Sets - preStats.Sets,
		Dels:        st.Dels - preStats.Dels,
		Misses:      st.Misses - preStats.Misses,
		LiveKeys:    st.Count,
		Capacity:    st.Capacity,
	}
	// Sim throughput is logical ops per virtual device second over the
	// measured phase alone (the serial seed phase is setup, not the
	// workload under test).
	row.SimTput = float64(p.Ops) / row.SimTime.Seconds()
	return row, nil
}

// FormatKV renders the sweep.
func FormatKV(rows []KVRow, p KVParams) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== oblivious KV: logical throughput vs shard count (%d x %d B blocks, %d-slot buckets, %d B value cap, %d seeded keys, %d ops) ==\n",
		p.Blocks, p.BlockSize, p.SlotsPerBucket, p.MaxValueBytes, p.SeedKeys, p.Ops)
	fmt.Fprintf(&b, "%7s %10s %12s %12s %12s %8s %8s %8s %8s\n",
		"shards", "blocks/op", "wall", "wall ops/s", "sim ops/s", "gets", "sets", "dels", "misses")
	base := 0.0
	for i, r := range rows {
		if i == 0 {
			base = r.SimTput
		}
		fmt.Fprintf(&b, "%7d %10d %12s %12.1f %12.1f %8d %8d %8d %8d   (%.2fx)\n",
			r.Shards, r.BlocksPerOp, r.Wall.Round(time.Millisecond), r.WallTput, r.SimTput,
			r.Gets, r.Sets, r.Dels, r.Misses, r.SimTput/base)
	}
	fmt.Fprintf(&b, "every op = one fixed pipeline (2S slot reads + E extent reads + 1+E writes);\n")
	fmt.Fprintf(&b, "hit, miss, insert, update and delete are bus-indistinguishable, so logical\n")
	fmt.Fprintf(&b, "ops/s is block req/s divided by the constant blocks/op.\n")
	return b.String()
}
