package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/device"
)

// perLayer computes the per-layer metrics: counters over the untraced
// timed section (c0 → c1: ops logical ops, at untracedRate ops/s over
// its whole wall time and cpuPerOp µs of CPU each), then timings from
// a traced closed-loop pass and the traced descent.
func (b *bench) perLayer(c0, c1 counters, ops int64, untracedRate, cpuPerOp float64) (map[string]metric, error) {
	per := func(delta int64) float64 { return float64(delta) / float64(ops) }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	kv := b.sp.kv
	onlyKV := func(v float64) float64 {
		if kv {
			return v
		}
		return 0
	}

	// The traced closed-loop pass: the same load, for a third of the
	// timed section, with a span around every client call, to price
	// the tracing.
	var loadOps int64
	for _, r := range b.runners {
		loadOps -= r.sent
	}
	wall := segment(b.runners, false, b.tr, func(el time.Duration) bool { return el >= b.seconds/3 })
	for _, r := range b.runners {
		loadOps += r.sent
	}
	tracedRate := float64(loadOps) / wall.Seconds()
	if err := b.st.checkLeveled(); err != nil {
		return nil, err
	}

	d := &descent{st: b.st, runners: b.runners, tr: b.tr, dir: filepath.Join(b.data, "descent")}
	if err := os.MkdirAll(d.dir, 0o700); err != nil {
		return nil, err
	}
	if err := d.run(b.seconds / 2); err != nil {
		return nil, err
	}
	if err := d.pathORAMPass(); err != nil {
		return nil, err
	}
	if err := d.sealerPass(); err != nil {
		return nil, err
	}
	if err := d.devicePass(); err != nil {
		return nil, err
	}

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	// perOp is the time of the spans named name per logical op of the
	// layer span outer they ran under, in µs.
	perOp := func(name, outer string) float64 {
		t, _, _ := b.tr.stats(name)
		return us(t) / float64(d.ops[outer])
	}
	coreT, _, _ := b.tr.stats(spanCore)
	accessT, _, nAccess := b.tr.stats(spanAccess)
	sealT, _, _ := b.tr.stats(spanSeal)
	openT, _, _ := b.tr.stats(spanOpen)
	readT, _, _ := b.tr.stats(spanRead)
	writeT, _, _ := b.tr.stats(spanWrite)

	// Per-op times of the descent's layers, in µs. engineBase is an
	// in-process engine's time on the workload's batches.
	t1 := perOp(spanClient, spanClient)
	var t3, engineBase, okvSelf, transport, transportPerBatch float64
	shardLayer := spanShards
	if kv {
		t2 := perOp(spanOKV, spanOKV)
		t3 = perOp(spanOKVEngine, spanOKV)
		okvSelf = t2 - t3
		engineBase = perOp(spanRefEngine, spanRefOKV)
		transport = t3 - engineBase
		gwT, _, gwN := b.tr.stats(spanOKVEngine)
		refT, _, refN := b.tr.stats(spanRefEngine)
		transportPerBatch = us(gwT)/float64(gwN) - us(refT)/float64(refN)
		shardLayer = spanShardOKV
	} else {
		t3 = perOp(spanEngine, spanEngine)
		engineBase = t3
	}
	serverSelf := t1 - t3 - okvSelf
	t4 := perOp(spanShards, shardLayer)
	engineSelf := engineBase - t4
	shardOps := float64(d.ops[shardLayer])

	accessUS := us(accessT) / float64(nAccess)
	sealNsKiB := float64(sealT) / d.sealedRecordsKB
	openNsKiB := float64(openT) / d.openedRecordsKB
	readUS := us(readT) / float64(d.slotsRead)
	writeUS := us(writeT) / float64(d.slotsWritten)

	// The leaves of an H-ORAM cycle, priced from the shard pass's own
	// device counts: memory-tier paths, storage sealing and storage I/O.
	// They are shard busy time; the shards run in parallel, so their
	// share of the wall time is their share of the shards' busy time.
	sh := d.shardDelta
	leaves := (float64(sh.mem.Reads)/d.slotsPerPath*accessUS +
		float64(sh.stor.BytesWritten)/1024*sealNsKiB/1e3 +
		float64(sh.stor.BytesRead)/1024*openNsKiB/1e3 +
		float64(sh.stor.Reads)*readUS +
		float64(sh.stor.Writes)*writeUS) / shardOps
	shardBusy := us(coreT) / shardOps
	attributed := pos(serverSelf) + pos(okvSelf) + pos(transport) + pos(engineSelf) + leaves*t4/shardBusy

	sealedPerOp := per(c1.sealed - c0.sealed)
	openedPerOp := per(c1.opened - c0.opened)
	stor := subStats(c1.stor, c0.stor)
	mem := subStats(c1.mem, c0.mem)
	cycles := c1.cycles - c0.cycles

	n := func(v float64, unit string, samples int64) metric {
		return metric{Value: v, Unit: unit, samples: samples}
	}
	m := map[string]metric{
		"server.mean_batch":               n(ratio(c1.srvRequests-c0.srvRequests, c1.srvWindows-c0.srvWindows), "ops", c1.srvWindows-c0.srvWindows),
		"server.wire_bytes_per_op":        n(per(c1.frontBytes-c0.frontBytes), "B/op", ops),
		"server.self_us_per_op":           n(serverSelf, "us/op", d.ops[spanClient]),
		"okv.engine_reqs_per_op":          n(onlyKV(per(c1.engOps-c0.engOps)), "reqs/op", ops),
		"okv.engine_batches_per_op":       n(onlyKV(per(c1.engBatches-c0.engBatches)), "batches/op", ops),
		"okv.self_us_per_op":              n(okvSelf, "us/op", d.ops[spanOKV]),
		"cluster.wire_bytes_per_op":       n(per(c1.nodeBytes-c0.nodeBytes), "B/op", ops),
		"cluster.transport_us_per_batch":  n(transportPerBatch, "us/batch", d.ops[spanOKV]),
		"engine.cycles_per_op":            n(per(cycles), "cycles/op", ops),
		"engine.pad_ratio":                n(ratio(c1.padded-c0.padded, cycles), "ratio", cycles),
		"engine.batch_us_per_op":          n(t3, "us/op", d.ops[spanClient]),
		"horam.hit_rate":                  n(1-ratio(c1.misses-c0.misses, c1.requests-c0.requests), "ratio", c1.requests-c0.requests),
		"horam.dummy_io_ratio":            n(ratio(c1.dummy-c0.dummy, c1.misses-c0.misses+c1.dummy-c0.dummy), "ratio", c1.misses-c0.misses+c1.dummy-c0.dummy),
		"horam.shuffles_per_kop":          n(1000*per(c1.shuffles-c0.shuffles), "1/kop", ops),
		"horam.quanta_per_kop":            n(1000*per(c1.quanta-c0.quanta), "1/kop", ops),
		"horam.cycle_us":                  n(us(coreT)/float64(d.cyclesRun), "us", d.cyclesRun),
		"pathoram.access_us":              n(accessUS, "us", int64(nAccess)),
		"pathoram.buckets_per_access":     n(d.bucketsPerPath, "buckets", d.pathAccesses),
		"pathoram.stash_peak":             n(float64(d.stashPeak), "blocks", d.pathAccesses),
		"blockcipher.sealed_bytes_per_op": n(sealedPerOp, "B/op", ops),
		"blockcipher.opened_bytes_per_op": n(openedPerOp, "B/op", ops),
		"blockcipher.seal_ns_per_kib":     n(sealNsKiB, "ns/KiB", sealBatches),
		"blockcipher.open_ns_per_kib":     n(openNsKiB, "ns/KiB", sealBatches),
		"blockcipher.cpu_share":           n((sealedPerOp/1024*sealNsKiB+openedPerOp/1024*openNsKiB)/1e3/cpuPerOp, "ratio", ops),
		"device.stor_read_bytes_per_op":   n(per(stor.BytesRead), "B/op", ops),
		"device.stor_write_bytes_per_op":  n(per(stor.BytesWritten), "B/op", ops),
		"device.seq_write_frac":           n(ratio(stor.SeqWrites, stor.Writes), "ratio", stor.Writes),
		"device.fsyncs_per_kop":           n(1000*per(c1.syncs-c0.syncs), "1/kop", ops),
		"device.mem_bytes_per_op":         n(per(mem.BytesRead+mem.BytesWritten), "B/op", ops),
		"device.file_read_us_per_slot":    n(readUS, "us/slot", d.slotsRead),
		"device.file_write_us_per_slot":   n(writeUS, "us/slot", d.slotsWritten),
		"trace.overhead_pct":              n(100*(1-tracedRate/untracedRate), "%", loadOps),
		"trace.unattributed_frac":         n(1-attributed/t1, "ratio", d.ops[spanClient]),
	}
	return m, nil
}

// subStats is a - b, field by field.
func subStats(a, b device.Stats) device.Stats {
	return device.Stats{
		Reads:        a.Reads - b.Reads,
		Writes:       a.Writes - b.Writes,
		BytesRead:    a.BytesRead - b.BytesRead,
		BytesWritten: a.BytesWritten - b.BytesWritten,
		SeqReads:     a.SeqReads - b.SeqReads,
		SeqWrites:    a.SeqWrites - b.SeqWrites,
		Busy:         a.Busy - b.Busy,
	}
}

func pos(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
