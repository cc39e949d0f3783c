package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/okv"
	"repro/internal/oramtree"
	"repro/internal/pathoram"
	"repro/internal/simclock"
)

// Span names, one per layer entry point, and their chrome://tracing
// lanes.
const (
	spanLoad      = "client (traced load)"
	spanClient    = "client"
	spanOKV       = "okv.Store"
	spanOKVEngine = "okv>engine.Batch"
	spanRefOKV    = "okv.Store (in-process engine)"
	spanRefEngine = "okv>engine.Batch (in-process engine)"
	spanShardOKV  = "okv.Store (shard clients)"
	spanEngine    = "engine.Batch"
	spanShards    = "shards"
	spanCore      = "core.Client.Batch"
	spanAccess    = "pathoram.Access"
	spanSeal      = "AESSealer.SealBatch"
	spanOpen      = "AESSealer.OpenBatch"
	spanRead      = "File.ReadSlots"
	spanWrite     = "File.WriteSlots"
)

const (
	laneClient = iota + 1
	laneEngine
	lanePathORAM
	laneSealer
	laneDevice
	laneShard      // + shard index
	laneLoad  = 20 // + connection id
)

// descent is the traced layer-by-layer run. Each round sends the
// workload's next requests through one layer entry point after the
// other, outermost first — TCP client; for KV the okv store over the
// gateway, over an in-process engine with the gateway's options, and
// over the shard clients; for blocks engine.Batch and the shard
// clients — so every layer sees the same traffic mix and store state.
// Each layer gets fresh requests: replaying a request a layer above
// just ran would find its blocks in the memory tier. Every reply is
// checked against the connection's oracle, and a layer's self time is
// its time per op minus that of the layer below.
type descent struct {
	st      *stack
	runners []*runner
	tr      *tracer
	dir     string

	local []int64 // global address -> address on its shard's client
	// KV: the reference engine, its store and the runner that drives
	// it, and the okv store over the shard clients.
	ref        *engine.Engine
	refStore   *okv.Store
	refRunner  *runner
	shardStore *okv.Store

	// ops counts the logical ops each outer span covered.
	ops map[string]int64
	// shard0 is shard 0's shard-local request stream, the input of the
	// pathoram and device passes.
	shard0 []*core.Request

	cyclesRun int64
	// shardDelta is the memory- and storage-tier traffic of the shard
	// layer.
	shardDelta struct{ mem, stor device.Stats }

	pathAccesses    int64
	bucketsPerPath  float64
	slotsPerPath    float64
	stashPeak       int
	sealedRecordsKB float64
	openedRecordsKB float64
	slotsRead       int64
	slotsWritten    int64
}

// layer runs the runner's next request through ep inside a span
// named name, which spans recorded by the layers below take as their
// parent.
func (d *descent) layer(i int64, name string, r *runner, ep endpoint) {
	q := r.next()
	d.ops[name] += int64(len(q.ops))
	saved := r.ep
	r.ep = ep
	// Over TCP the server side runs the okv backend untraced, as it
	// serves; below, the backends span their engine batches.
	d.tr.armed.Store(name != spanClient)
	id := d.tr.begin(name, -1, i, laneClient)
	d.tr.open.Store(int64(id) + 1)
	r.do(q)
	d.tr.open.Store(0)
	d.tr.end(id)
	d.tr.armed.Store(false)
	r.ep = saved
}

// run runs rounds for budget.
func (d *descent) run(budget time.Duration) (err error) {
	d.ops = make(map[string]int64)
	if d.local, err = shardAddrs(d.st.eng, d.st.kv); err != nil {
		return err
	}
	if d.st.kv {
		err = d.openKV()
		defer d.closeKV(&err)
		if err != nil {
			return err
		}
	}
	start := time.Now()
	for i := int64(0); time.Since(start) < budget; i++ {
		r := d.runners[i%int64(len(d.runners))]
		d.layer(i, spanClient, r, r.ep)
		if d.st.kv {
			d.layer(i, spanOKV, r, storeEndpoint{d.st.store})
			d.layer(i, spanRefOKV, d.refRunner, d.refRunner.ep)
			d.layer(i, spanShardOKV, r, storeEndpoint{d.shardStore})
		} else {
			d.layer(i, spanEngine, r, engineEndpoint{d.st.eng})
			d.layer(i, spanShards, r, shardEndpoint{d})
		}
	}
	// The shard layer bypasses the engine's cycle leveling; an empty
	// batch runs a leveling pass so the guard can check the result.
	if err := d.st.eng.Batch(nil); err != nil {
		return err
	}
	return d.st.checkLeveled()
}

// openKV builds the KV layers below the gateway's store: the okv
// store over the shard clients, and the reference — an in-process
// engine with the gateway's options, warmed through one shuffle period
// with the workload's own traffic, so the gateway's extra cost over it
// is the transport.
func (d *descent) openKV() error {
	var err error
	d.shardStore, err = okv.New(okv.Options{Backend: &shardBackend{d}, MaxValueBytes: maxValueBytes, Key: engineKey})
	if err != nil {
		return err
	}
	opts := baseOptions()
	opts.DataDir = filepath.Join(d.dir, "reference")
	if d.ref, err = engine.New(opts); err != nil {
		return err
	}
	d.refStore, err = okv.New(okv.Options{
		Backend:       &tracedBackend{eng: d.ref, tr: d.tr, span: spanRefEngine},
		MaxValueBytes: maxValueBytes,
		Key:           engineKey,
	})
	if err != nil {
		return err
	}
	d.refRunner = newRunner(0, storeEndpoint{d.refStore}, d.runners[0].stream)
	deadline := time.Now().Add(warmCap)
	for !shuffled(shardClients(d.ref)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("reference engine: no shuffle period within %v", warmCap)
		}
		d.refRunner.do(d.refRunner.next())
	}
	return nil
}

func (d *descent) closeKV(err *error) {
	for _, s := range []*okv.Store{d.shardStore, d.refStore} {
		if s != nil {
			s.Close()
		}
	}
	if d.ref != nil {
		if cerr := d.ref.Close(); cerr != nil && *err == nil {
			*err = cerr
		}
	}
	if d.refRunner != nil && d.refRunner.failed > 0 && *err == nil {
		*err = fmt.Errorf("reference engine: %w", d.refRunner.firstErr)
	}
}

// engineEndpoint sends block MULTIs straight to engine.Batch.
type engineEndpoint struct{ eng *engine.Engine }

func (e engineEndpoint) Batch(ops []client.Op) ([]client.Result, error) {
	return runOps(ops, e.eng.Batch)
}

func (engineEndpoint) KGet([]byte) ([]byte, bool, error) { return nil, false, errBlockOnly }
func (engineEndpoint) KSet([]byte, []byte) error         { return errBlockOnly }
func (engineEndpoint) KDel([]byte) (bool, error)         { return false, errBlockOnly }

// shardEndpoint sends block MULTIs to the shard clients.
type shardEndpoint struct{ d *descent }

func (e shardEndpoint) Batch(ops []client.Op) ([]client.Result, error) {
	return runOps(ops, e.d.shardBatch)
}

func (shardEndpoint) KGet([]byte) ([]byte, bool, error) { return nil, false, errBlockOnly }
func (shardEndpoint) KSet([]byte, []byte) error         { return errBlockOnly }
func (shardEndpoint) KDel([]byte) (bool, error)         { return false, errBlockOnly }

var errBlockOnly = errors.New("KV verb on a block-only layer")

// runOps runs client ops as one batch of engine requests.
func runOps(ops []client.Op, batch func([]*core.Request) error) ([]client.Result, error) {
	reqs := make([]*core.Request, len(ops))
	for i, o := range ops {
		reqs[i] = &core.Request{Op: core.OpRead, Addr: o.Addr}
		if o.Write {
			reqs[i].Op = core.OpWrite
			reqs[i].Data = o.Data
		}
	}
	if err := batch(reqs); err != nil {
		return nil, err
	}
	out := make([]client.Result, len(ops))
	for i, r := range reqs {
		if r.Op == core.OpRead {
			out[i].Data = r.Result
		}
	}
	return out, nil
}

// shardBackend is the okv.Backend over the shard clients.
type shardBackend struct{ d *descent }

func (b *shardBackend) Blocks() int64                    { return b.d.st.eng.Blocks() }
func (b *shardBackend) BlockSize() int                   { return b.d.st.eng.BlockSize() }
func (b *shardBackend) Batch(reqs []*core.Request) error { return b.d.shardBatch(reqs) }

// shardBatch runs one engine batch directly on the H-ORAM shard
// clients: split by shard through the engine's own address map, the
// sub-batches run concurrently, as the engine runs them, minus its
// scatter, gather and cycle leveling.
func (d *descent) shardBatch(b []*core.Request) error {
	shards := d.st.shards
	subs := make([][]*core.Request, len(shards))
	shadows := make([]*core.Request, len(b))
	for j, r := range b {
		s := d.st.eng.ShardOf(r.Addr)
		shadows[j] = &core.Request{Op: r.Op, Addr: d.local[r.Addr], Data: r.Data}
		subs[s] = append(subs[s], shadows[j])
		if s == 0 {
			d.shard0 = append(d.shard0, &core.Request{Op: r.Op, Addr: d.local[r.Addr], Data: append([]byte(nil), r.Data...)})
		}
	}
	before, memBefore, storBefore := shardTotals(shards)
	parent := int(d.tr.open.Load()) - 1
	op := d.tr.opOf(parent)
	if d.st.kv {
		// Under okv the shard layer is one okv batch deeper.
		parent = d.tr.begin(spanShards, parent, op, laneEngine)
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, sub []*core.Request) {
			defer wg.Done()
			id := d.tr.begin(spanCore, parent, op, laneShard+s)
			errs[s] = shards[s].Batch(sub)
			d.tr.end(id)
		}(s, sub)
	}
	wg.Wait()
	if d.st.kv {
		d.tr.end(parent)
	}
	after, memAfter, storAfter := shardTotals(shards)
	d.cyclesRun += after - before
	d.shardDelta.mem = d.shardDelta.mem.Add(subStats(memAfter, memBefore))
	d.shardDelta.stor = d.shardDelta.stor.Add(subStats(storAfter, storBefore))
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	for j, r := range b {
		r.Result = shadows[j].Result
	}
	return nil
}

// shardTotals sums the shards' cycle counts and device traffic.
func shardTotals(shards []*core.Client) (cycles int64, mem, stor device.Stats) {
	for _, sh := range shards {
		cycles += sh.Stats().Cycles
		mem = mem.Add(sh.Engine().Mem().Stats())
		stor = stor.Add(sh.Engine().Stor().Stats())
	}
	return cycles, mem, stor
}

// partition reproduces the shard-local address map of an engine
// built with opts, which the engine does not export: a key-derived
// permutation of the address space dealt round-robin into the shards.
func partition(opts engine.Options) (shardOf []int, local []int64, err error) {
	seed := opts.Seed
	if seed == "" {
		prf, err := blockcipher.NewPRF(opts.Key)
		if err != nil {
			return nil, nil, err
		}
		seed = string(prf.Derive("engine-seed", 32))
	}
	perm := blockcipher.NewRNGFromString(seed + "/engine-partition").Perm(int(opts.Blocks))
	shardOf = make([]int, opts.Blocks)
	local = make([]int64, opts.Blocks)
	for i, addr := range perm {
		shardOf[addr] = i % opts.Shards
		local[addr] = int64(i / opts.Shards)
	}
	return shardOf, local, nil
}

// shardAddrs maps every global address to its address on its shard's
// H-ORAM client. A gateway's node is itself a 1-shard engine with its
// own map, so KV composes the two. The gateway-level derivation is
// checked against the engine's public ShardOf; a drifted node-level
// one scrambles blocks, which the oracle's read checks report.
func shardAddrs(eng *engine.Engine, kv bool) ([]int64, error) {
	opts := baseOptions()
	shardOf, local, err := partition(opts)
	if err != nil {
		return nil, err
	}
	for a, s := range shardOf {
		if eng.ShardOf(int64(a)) != s {
			return nil, fmt.Errorf("shard address map: derivation disagrees with engine.ShardOf(%d)", a)
		}
	}
	if !kv {
		return local, nil
	}
	nodes := make([][]int64, numShards)
	for i := range nodes {
		nopts, err := engine.ShardConfig(opts, i)
		if err != nil {
			return nil, err
		}
		if _, nodes[i], err = partition(nopts); err != nil {
			return nil, err
		}
	}
	for a, s := range shardOf {
		local[a] = nodes[s][local[a]]
	}
	return local, nil
}

// memTierGeometry is one shard's memory-tier tree, as horam sizes it.
func memTierGeometry() (oramtree.Geometry, error) {
	return oramtree.FitCapacity(memoryBytes/numShards/blockSize, 4)
}

// pathORAMPass replays shard 0's request stream on a Path ORAM with
// one shard's memory-tier geometry, AES sealing and the simulated
// DRAM device horam gives its memory tier. Addresses fold onto the
// tree's real-block capacity, which is all the tier ever holds.
func (d *descent) pathORAMPass() error {
	geom, err := memTierGeometry()
	if err != nil {
		return err
	}
	sealer, err := blockcipher.NewAESSealer(engineKey, blockcipher.NewRNGFromString("perfbench/pathoram-sealer"))
	if err != nil {
		return err
	}
	cfg := pathoram.Config{
		Blocks:    numBlocks / numShards,
		BlockSize: blockSize,
		Z:         geom.Z,
		Capacity:  geom.Slots(),
		Sealer:    sealer,
		RNG:       blockcipher.NewRNGFromString("perfbench/pathoram"),
	}
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), geom.Slots(), simclock.New())
	if err != nil {
		return err
	}
	o, err := pathoram.New(cfg, dev)
	if err != nil {
		return err
	}
	capacity := o.Capacity()
	before, devBefore := o.Stats(), dev.Stats()
	for i, r := range d.shard0 {
		op := pathoram.OpRead
		if r.Op == core.OpWrite {
			op = pathoram.OpWrite
		}
		id := d.tr.begin(spanAccess, -1, int64(i), lanePathORAM)
		_, err := o.Access(op, r.Addr%capacity, r.Data)
		d.tr.end(id)
		if err != nil {
			return fmt.Errorf("pathoram replay: %w", err)
		}
	}
	st, ds := o.Stats(), dev.Stats()
	d.pathAccesses = st.Accesses - before.Accesses
	if d.pathAccesses > 0 {
		d.bucketsPerPath = float64(st.BucketReads-before.BucketReads+st.BucketWrites-before.BucketWrites) / float64(d.pathAccesses)
		d.slotsPerPath = float64(ds.Reads-devBefore.Reads) / float64(d.pathAccesses)
	}
	d.stashPeak = o.StashPeak()
	return nil
}

// Sealer pass geometry: batches of one memory path's records.
const sealBatches = 256

// sealerPass seals and opens slot records (8-byte header + block →
// header + block + nonce + tag) in path-sized batches, serially, so
// the per-KiB figures are CPU cost.
func (d *descent) sealerPass() error {
	geom, err := memTierGeometry()
	if err != nil {
		return err
	}
	s, err := blockcipher.NewAESSealer(engineKey, blockcipher.NewRNGFromString("perfbench/sealer"))
	if err != nil {
		return err
	}
	per := (geom.Levels + 1) * geom.Z
	ptSize := 8 + blockSize
	pts := make([][]byte, per)
	sealed := make([][]byte, per)
	opened := make([][]byte, per)
	for i := range pts {
		pts[i] = make([]byte, ptSize)
		fillPattern(pts[i], int64(i), 1)
		sealed[i] = make([]byte, ptSize+s.Overhead())
		opened[i] = make([]byte, ptSize)
	}
	for b := 0; b < sealBatches; b++ {
		id := d.tr.begin(spanSeal, -1, int64(b), laneSealer)
		err := s.SealBatch(pts, sealed, 1)
		d.tr.end(id)
		if err != nil {
			return err
		}
		id = d.tr.begin(spanOpen, -1, int64(b), laneSealer)
		err = s.OpenBatch(sealed, opened, 1)
		d.tr.end(id)
		if err != nil {
			return err
		}
	}
	d.sealedRecordsKB = float64(sealBatches*per*ptSize) / 1024
	d.openedRecordsKB = float64(sealBatches*per*(ptSize+s.Overhead())) / 1024
	return nil
}

// devicePass drives a File device with one shard's storage geometry:
// every partition rewritten as one vectored run (a shuffle period's
// writes), then single-slot reads at the slots shard 0's requests
// scatter to (miss loads).
func (d *descent) devicePass() error {
	shardBlocks := int64(numBlocks / numShards)
	partitions := int64(math.Ceil(math.Sqrt(float64(shardBlocks))))
	perPart := (shardBlocks + partitions - 1) / partitions
	s, err := blockcipher.NewAESSealer(engineKey, blockcipher.NewRNGFromString("perfbench/device"))
	if err != nil {
		return err
	}
	slotSize := 8 + blockSize + s.Overhead()
	if err := os.MkdirAll(d.dir, 0o700); err != nil {
		return err
	}
	path := filepath.Join(d.dir, "device.dat")
	f, err := device.NewFile(device.FileConfig{
		Path:     path,
		Profile:  device.PaperHDD(),
		SlotSize: slotSize,
		Slots:    partitions * perPart,
		Clock:    simclock.New(),
	})
	if err != nil {
		return err
	}
	defer os.Remove(path) //horam:errok temporary file
	slots := make([]int64, perPart)
	bufs := make([][]byte, perPart)
	for i := range bufs {
		bufs[i] = make([]byte, slotSize)
		fillPattern(bufs[i], int64(i), 2)
	}
	for p := int64(0); p < partitions; p++ {
		for i := range slots {
			slots[i] = p*perPart + int64(i)
		}
		id := d.tr.begin(spanWrite, -1, p, laneDevice)
		err := f.WriteSlots(slots, bufs)
		d.tr.end(id)
		if err != nil {
			f.Close() //horam:errok the write error is the one to surface
			return err
		}
	}
	d.slotsWritten = partitions * perPart
	if err := f.Sync(); err != nil {
		f.Close() //horam:errok the sync error is the one to surface
		return err
	}
	one := make([]int64, 1)
	total := partitions * perPart
	for i, r := range d.shard0 {
		// An odd multiplier scatters neighbouring addresses across
		// partitions, as the storage permutation does.
		one[0] = (r.Addr*2654435761 + int64(i)) % total
		id := d.tr.begin(spanRead, -1, int64(i), laneDevice)
		err := f.ReadSlots(one, bufs[:1])
		d.tr.end(id)
		if err != nil {
			f.Close() //horam:errok the read error is the one to surface
			return err
		}
		d.slotsRead++
	}
	return f.Close()
}
