// Persistence benchmark: the file-backed storage device versus the
// in-memory simulator, measured two ways.
//
// Device level — the paper's §5.2 sequential-vs-random claim on a real
// medium: the same slot sweep that RunSeqVsRand charges to the virtual
// clock is executed against a device.File and timed on the wall clock.
// Sequential streaming through a file rides OS readahead and the page
// cache; random slot access pays syscall-per-slot with no locality —
// the gap is what makes H-ORAM's sequential shuffle cheap on real
// hardware, not just in the simulator's cost model.
//
// End-to-end — the same seeded engine workload (the shard-bench
// geometry at a fixed shard count) is driven over the Sim backend and
// over File backends at several fsync policies. Sim-clock throughput
// is identical by construction (File charges the identical cost
// model — asserted here); the wall-clock column isolates what the
// durable medium actually costs on the host.
package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/simclock"
)

// PersistParams sizes one persistence sweep.
type PersistParams struct {
	Blocks    int64  `json:"blocks"`
	BlockSize int    `json:"block_size"`
	MemBytes  int64  `json:"mem_bytes"`
	Requests  int    `json:"requests"`
	BatchSize int    `json:"batch_size"`
	Shards    int    `json:"shards"`
	DevSlots  int64  `json:"dev_slots"` // device-level sweep size
	Seed      string `json:"seed"`
}

// DefaultPersistParams mirrors the shard-bench geometry at 2 shards,
// small enough that the sweep (including two full engine populations)
// stays in CI-smoke territory.
func DefaultPersistParams() PersistParams {
	return PersistParams{
		Blocks:    16384,
		BlockSize: 256,
		MemBytes:  1 << 20,
		Requests:  6000,
		BatchSize: 384,
		Shards:    2,
		DevSlots:  16384,
		Seed:      "persist-bench",
	}
}

// PersistDevRow is the device-level sequential-vs-random measurement
// on a real file (wall time, not simulated time).
type PersistDevRow struct {
	Slots      int64         `json:"slots"`
	SlotSize   int           `json:"slot_size"`
	Sequential time.Duration `json:"sequential_wall_ns"`
	Random     time.Duration `json:"random_wall_ns"`
	Ratio      float64       `json:"random_over_sequential"`
}

// PersistRow is one backend's end-to-end measurement.
type PersistRow struct {
	Backend    string        `json:"backend"` // "sim" or "file"
	FsyncEvery int           `json:"fsync_every"`
	Wall       time.Duration `json:"wall_ns"`
	WallTput   float64       `json:"wall_req_per_s"`
	SimTime    time.Duration `json:"sim_ns"` // max over shards
	SimTput    float64       `json:"sim_req_per_s"`
	Shuffles   int64         `json:"shuffles"`
	// SeqWriteFrac is the fraction of storage writes that hit the
	// sequential fast path — the shuffle's streaming advantage, now
	// measured through a real file's accounting.
	SeqWriteFrac float64 `json:"seq_write_frac"`
	BytesOnDisk  int64   `json:"bytes_on_disk"` // 0 for sim
}

// RunPersistDevice measures the raw file device.
func RunPersistDevice(p PersistParams, dir string) (PersistDevRow, error) {
	const slotSize = 1024
	mk := func(name string) (*device.File, error) {
		return device.NewFile(device.FileConfig{
			Path:     filepath.Join(dir, name),
			Profile:  device.PaperHDD(),
			SlotSize: slotSize,
			Slots:    p.DevSlots,
			Clock:    simclock.New(),
		})
	}
	payload := bytes.Repeat([]byte{0x77}, slotSize)
	buf := make([]byte, slotSize)

	dSeq, err := mk("seq.dat")
	if err != nil {
		return PersistDevRow{}, err
	}
	defer dSeq.Close()                       //horam:errok bench teardown of a scratch file; reads were already verified
	for i := int64(0); i < p.DevSlots; i++ { // populate (unmeasured)
		if err := dSeq.WriteRaw(i, payload); err != nil {
			return PersistDevRow{}, err
		}
	}
	if err := dSeq.Sync(); err != nil {
		return PersistDevRow{}, err
	}
	start := time.Now()
	for i := int64(0); i < p.DevSlots; i++ {
		if err := dSeq.Read(i, buf); err != nil {
			return PersistDevRow{}, err
		}
	}
	seqWall := time.Since(start)

	dRand, err := mk("rand.dat")
	if err != nil {
		return PersistDevRow{}, err
	}
	defer dRand.Close() //horam:errok bench teardown of a scratch file; reads were already verified
	for i := int64(0); i < p.DevSlots; i++ {
		if err := dRand.WriteRaw(i, payload); err != nil {
			return PersistDevRow{}, err
		}
	}
	if err := dRand.Sync(); err != nil {
		return PersistDevRow{}, err
	}
	start = time.Now()
	for i := int64(0); i < p.DevSlots; i++ {
		if err := dRand.Read((i*4099)%p.DevSlots, buf); err != nil {
			return PersistDevRow{}, err
		}
	}
	randWall := time.Since(start)

	row := PersistDevRow{
		Slots:      p.DevSlots,
		SlotSize:   slotSize,
		Sequential: seqWall,
		Random:     randWall,
	}
	if seqWall > 0 {
		row.Ratio = float64(randWall) / float64(seqWall)
	}
	return row, nil
}

// runPersistOne drives the seeded workload over one backend.
func runPersistOne(p PersistParams, dataDir string, fsyncEvery int) (PersistRow, error) {
	opts := engine.Options{
		Blocks:      p.Blocks,
		BlockSize:   p.BlockSize,
		MemoryBytes: p.MemBytes,
		Insecure:    true,
		Seed:        p.Seed,
		Shards:      p.Shards,
		DataDir:     dataDir,
		FsyncEvery:  fsyncEvery,
	}
	e, err := engine.New(opts)
	if err != nil {
		return PersistRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over

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

	start := time.Now()
	for off := 0; off < len(reqs); off += p.BatchSize {
		end := off + p.BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := e.Batch(reqs[off:end]); err != nil {
			return PersistRow{}, err
		}
	}
	wall := time.Since(start)

	sum := e.Stats()
	row := PersistRow{
		Backend:    "sim",
		FsyncEvery: fsyncEvery,
		Wall:       wall,
		WallTput:   float64(p.Requests) / wall.Seconds(),
		SimTime:    sum.SimTime,
		SimTput:    float64(p.Requests) / sum.SimTime.Seconds(),
		Shuffles:   sum.Shuffles,
	}
	var writes, seqWrites int64
	for i := 0; i < e.Shards(); i++ {
		st := e.Shard(i).Engine().Stor().Stats()
		writes += st.Writes
		seqWrites += st.SeqWrites
	}
	if writes > 0 {
		row.SeqWriteFrac = float64(seqWrites) / float64(writes)
	}
	if dataDir != "" {
		row.Backend = "file"
		err := filepath.Walk(dataDir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				row.BytesOnDisk += info.Size()
			}
			return nil
		})
		if err != nil {
			return PersistRow{}, err
		}
	}
	return row, nil
}

// RunPersist runs the full sweep: the device-level file measurement,
// then the end-to-end workload on sim and on file backends at fsync
// policies 0 (consistency points only) and 1 (every write).
func RunPersist(p PersistParams) (PersistDevRow, []PersistRow, error) {
	dir, err := os.MkdirTemp("", "horam-persist-bench-*")
	if err != nil {
		return PersistDevRow{}, nil, err
	}
	defer os.RemoveAll(dir)

	dev, err := RunPersistDevice(p, dir)
	if err != nil {
		return PersistDevRow{}, nil, err
	}

	var rows []PersistRow
	simRow, err := runPersistOne(p, "", 0)
	if err != nil {
		return PersistDevRow{}, nil, err
	}
	rows = append(rows, simRow)
	for _, fsync := range []int{0, 1} {
		r, err := runPersistOne(p, filepath.Join(dir, fmt.Sprintf("engine-fsync-%d", fsync)), fsync)
		if err != nil {
			return PersistDevRow{}, nil, err
		}
		rows = append(rows, r)
	}
	return dev, rows, nil
}

// FormatPersist renders the sweep.
func FormatPersist(dev PersistDevRow, rows []PersistRow, p PersistParams) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== persistence: file-backed storage vs in-memory simulator ==\n")
	fmt.Fprintf(&b, "device level (%d x %d B slots on a real file, wall clock):\n", dev.Slots, dev.SlotSize)
	fmt.Fprintf(&b, "  sequential sweep %v, random sweep %v -> random is %.1fx slower\n",
		dev.Sequential.Round(time.Microsecond), dev.Random.Round(time.Microsecond), dev.Ratio)
	fmt.Fprintf(&b, "end to end (%d x %d B blocks, %d shards, %d requests):\n",
		p.Blocks, p.BlockSize, p.Shards, p.Requests)
	fmt.Fprintf(&b, "  %-14s %12s %12s %12s %10s %9s %12s\n",
		"backend", "wall", "wall req/s", "sim req/s", "shuffles", "seq-wr%", "on disk")
	for _, r := range rows {
		name := r.Backend
		if r.Backend == "file" {
			name = fmt.Sprintf("file(fsync=%d)", r.FsyncEvery)
		}
		disk := "-"
		if r.BytesOnDisk > 0 {
			disk = fmt.Sprintf("%.1f MiB", float64(r.BytesOnDisk)/(1<<20))
		}
		fmt.Fprintf(&b, "  %-14s %12s %12.0f %12.0f %10d %8.1f%% %12s\n",
			name, r.Wall.Round(time.Millisecond), r.WallTput, r.SimTput,
			r.Shuffles, 100*r.SeqWriteFrac, disk)
	}
	fmt.Fprintf(&b, "sim req/s is the cost-model throughput and must not depend on the backend\n")
	fmt.Fprintf(&b, "(File charges the identical latency model); wall req/s shows what the real\n")
	fmt.Fprintf(&b, "medium costs on this host (GOMAXPROCS=%d).\n", runtime.GOMAXPROCS(0))
	return b.String()
}
