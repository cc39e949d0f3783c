// Tests for the observability surfaces: the leak-audit differential
// (the /metrics contract), the zero-alloc STATS render, the TRACE and
// METRICS verbs, and the typed ParseStats round trip.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
)

// runAuditWorkload serves a fresh engine through a fresh registry,
// drives ops single-request windows (each WRITE is one window, so the
// window structure is deterministic), waits for quiescence and returns
// the audited snapshot.
//
// hot=true hammers one address; hot=false scans uniformly. Equal op
// count, equal batch structure — an adversary reading the audited
// snapshot must not be able to tell the two apart.
func runAuditWorkload(t *testing.T, shards int, hot, inject bool) string {
	t.Helper()
	eng, err := engine.New(engine.Options{
		Blocks:      512,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "obs-diff",
		Shards:      shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	reg := obs.NewRegistry()
	eng.Observe(reg, nil)
	if inject {
		// The deliberate leak the audit must catch: the real-vs-pad
		// cycle split per shard IS the request routing distribution.
		for i := 0; i < eng.Shards(); i++ {
			i := i
			reg.GaugeFunc("horam_shard_real_cycles",
				"DELIBERATE LEAK: per-shard non-pad cycle count",
				obs.Public("WRONG ON PURPOSE: the real/pad split is secret-dependent; this registration exists so the differential test proves it would be caught"),
				func() int64 {
					st := eng.ShardStats()[i]
					return st.Cycles - st.PadCycles
				},
				obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		}
	}
	addr, srv := startServer(t, Config{Engine: eng, Metrics: reg})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 48
	payload := bytes.Repeat([]byte{0x5a}, 64)
	for i := 0; i < ops; i++ {
		a := int64(7)
		if !hot {
			a = int64((i * 10) % 512)
		}
		if err := c.Write(a, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The connection-active gauge drops asynchronously after QUIT;
	// audit only a quiescent server.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
	// Level both runs to one fixed cycle target before auditing. Raw
	// cycle counts differ between the workloads (a memory-tier hit
	// advances fewer device cycles than a miss) — but that difference
	// IS the device bus the adversary already watches; the audit
	// contract is about quiescent padded state, where everything
	// public must equalize. 256 clears both workloads' organic counts.
	if _, err := eng.PadToCycles(256); err != nil {
		t.Fatal(err)
	}
	return reg.AuditText()
}

// TestMetricsEqualityDifferential is the leak audit: the full audited
// snapshot (everything Public — wall-clock Timing metrics are
// excluded by construction) must be byte-identical between a
// hot-single-address workload and a uniform scan of equal op count.
// Cycle leveling is what makes the per-shard counters pass this.
func TestMetricsEqualityDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		hotText := runAuditWorkload(t, shards, true, false)
		uniText := runAuditWorkload(t, shards, false, false)
		if hotText != uniText {
			t.Errorf("shards=%d: audited snapshots distinguish the workloads\nhot:\n%s\nuniform:\n%s",
				shards, hotText, uniText)
		}
		if !strings.Contains(hotText, "horam_shard_cycles") || !strings.Contains(hotText, "horam_server_windows_total") {
			t.Errorf("shards=%d: audit snapshot is missing expected public metrics:\n%s", shards, hotText)
		}
	}
}

// TestMetricsEqualityCatchesInjectedLeak proves the differential has
// teeth: registering the per-shard real-vs-pad cycle split as Public
// makes the snapshots diverge, because that split IS the routing
// distribution the padding exists to hide. (One shard has no routing
// to leak, so the injection only bites at 2+.)
func TestMetricsEqualityCatchesInjectedLeak(t *testing.T) {
	for _, shards := range []int{2, 4} {
		hotText := runAuditWorkload(t, shards, true, true)
		uniText := runAuditWorkload(t, shards, false, true)
		if hotText == uniText {
			t.Errorf("shards=%d: injected secret-dependent gauge did not change the audited snapshot:\n%s",
				shards, hotText)
		}
	}
}

// TestStatsRenderZeroAlloc pins the STATS serving path at zero
// allocations per render once the scratch buffers are warm — the
// regression guard for operator polling loops.
func TestStatsRenderZeroAlloc(t *testing.T) {
	addr, srv := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte{1}, 64)
	for i := 0; i < 8; i++ {
		if err := c.Write(int64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	srv.writeStats(io.Discard) // warm the scratch buffers
	if n := testing.AllocsPerRun(100, func() { srv.writeStats(io.Discard) }); n != 0 {
		t.Fatalf("STATS render allocates %.1f times per run, want 0", n)
	}
}

// TestTraceVerb arms the tracer over the wire, runs traffic, and
// checks the dump is valid chrome://tracing JSON carrying the
// expected span names from both the server and engine layers.
func TestTraceVerb(t *testing.T) {
	eng, err := engine.New(engine.Options{
		Blocks:      512,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "trace-test",
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 12)
	eng.Observe(reg, tr)
	addr, _ := startServer(t, Config{Engine: eng, Metrics: reg, Tracer: tr})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.TraceStart(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{2}, 64)
	for i := 0; i < 8; i++ {
		if err := c.Write(int64(i*13%512), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.TraceStop(); err != nil {
		t.Fatal(err)
	}
	dump, err := c.TraceDump()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		t.Fatalf("TRACE DUMP is not valid JSON: %v\n%s", err, dump)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("TRACE DUMP carried no events")
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete-event X", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"window", "batch", "drain"} {
		if !names[want] {
			t.Errorf("trace has no %q spans (got %v)", want, names)
		}
	}

	// A server with no tracer wired refuses the verb.
	addr2, _ := startServer(t, Config{})
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.TraceStart(); err == nil {
		t.Fatal("TRACE ON succeeded on a server with no tracer")
	}
}

// TestMetricsVerb checks the shard-control METRICS verb: gated behind
// -shard-serve like PAD, and decoding to the node's full exposition.
func TestMetricsVerb(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _ := startServer(t, Config{Metrics: reg, ShardControl: true})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte{3}, 64)
	if err := c.Write(5, payload); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# HELP", "# TYPE", "# CLASS", "horam_server_windows_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("METRICS exposition missing %q:\n%s", want, text)
		}
	}

	// Without shard-control the verb is refused, like PAD.
	addr2, _ := startServer(t, Config{})
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Metrics(); err == nil {
		t.Fatal("METRICS succeeded without -shard-serve")
	}
}

// TestParseStatsRoundTrip drives real traffic, fetches the STATS line
// through the typed helper and cross-checks it against the server's
// own snapshot — block mode first, then KV mode for the kv_* group.
func TestParseStatsRoundTrip(t *testing.T) {
	addr, srv := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte{4}, 64)
	for i := 0; i < 16; i++ {
		if err := c.Write(int64(i*31%512), payload); err != nil {
			t.Fatal(err)
		}
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.ParseStats(kv)
	if err != nil {
		t.Fatalf("ParseStats: %v\nline map: %v", err, kv)
	}
	if st.KV != nil {
		t.Fatal("block-mode stats carried a kv group")
	}
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("shards=%d per-shard=%d, want 2/2", st.Shards, len(st.PerShard))
	}
	if st.Requests != 16 || st.Batches != 16 {
		t.Fatalf("requests=%d batches=%d, want 16/16 (one window per WRITE)", st.Requests, st.Batches)
	}
	own := srv.Stats()
	if st.Conns != own.Accepted || st.Active != own.Active || st.Rejected != own.Rejected {
		t.Fatalf("conn counters %d/%d/%d disagree with server snapshot %d/%d/%d",
			st.Conns, st.Active, st.Rejected, own.Accepted, own.Active, own.Rejected)
	}
	var perShardReqs int64
	for i, sh := range st.PerShard {
		if sh.Shard != i {
			t.Fatalf("per-shard group %d parsed as shard %d", i, sh.Shard)
		}
		if sh.Cycles <= 0 || sh.Hist == "" {
			t.Fatalf("shard %d parsed as %+v, want live counters", i, sh)
		}
		perShardReqs += sh.Requests
	}
	if perShardReqs != st.Requests {
		t.Fatalf("per-shard requests sum %d != window requests %d", perShardReqs, st.Requests)
	}

	kvAddr, _, _ := startKVServer(t)
	kc, err := client.Dial(kvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	if err := kc.KSet([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kc.KGet([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kc.KGet([]byte("missing")); err != nil {
		t.Fatal(err)
	}
	kvLine, err := kc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	kst, err := client.ParseStats(kvLine)
	if err != nil {
		t.Fatalf("ParseStats (kv): %v\nline map: %v", err, kvLine)
	}
	if kst.KV == nil {
		t.Fatal("kv-mode stats parsed without a kv group")
	}
	if kst.KV.Gets != 2 || kst.KV.Sets != 1 || kst.KV.Count != 1 || kst.KV.Misses != 1 {
		t.Fatalf("kv group %+v, want gets=2 sets=1 count=1 misses=1", kst.KV)
	}

	// Malformed input: a missing required field must name itself.
	delete(kv, "shuffles")
	if _, err := client.ParseStats(kv); err == nil || !strings.Contains(err.Error(), "shuffles") {
		t.Fatalf("ParseStats on a map missing shuffles: %v", err)
	}
}
