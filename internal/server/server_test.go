package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/client"
	"repro/internal/engine"
)

// startServer builds a small insecure store (2 shards unless the
// caller provided an engine), serves it on a loopback listener and
// returns the connect address plus the server handle.
func startServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	if cfg.Engine == nil {
		e, err := engine.New(engine.Options{
			Blocks:      512,
			BlockSize:   64,
			MemoryBytes: 16 << 10,
			Insecure:    true,
			Seed:        "server-test",
			Shards:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		cfg.Engine = e
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// TestConcurrentClientsBatching is the acceptance test: 8 concurrent
// clients hammer mixed READ/WRITE traffic over real TCP sockets, each
// client sees read-your-writes on its private address range, and the
// concurrency actually merges requests into shared scheduler drains.
// The server dispatches every request on its own, so the merging is
// the engine's: its per-shard queues must drain fewer batches than
// the requests they served.
func TestConcurrentClientsBatching(t *testing.T) {
	addr, srv := startServer(t, Config{})

	const (
		clients   = 8
		perClient = 40
		region    = 32 // private blocks per client
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- runClient(addr, id, perClient, region)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if st.Requests != clients*perClient || st.Batches != clients*perClient {
		t.Fatalf("served %d requests in %d windows, want %d in %d (one window per request)",
			st.Requests, st.Batches, clients*perClient, clients*perClient)
	}
	sum := srv.engine.Stats()
	if sum.Requests != st.Requests {
		t.Fatalf("engine served %d requests, server dispatched %d", sum.Requests, st.Requests)
	}
	if sum.Batches >= sum.Requests {
		t.Fatalf("engine drained %d batches for %d requests under %d concurrent clients: no merging happened (shard hist %s)",
			sum.Batches, sum.Requests, clients, engine.FormatHist(st.ShardHistogram))
	}
	t.Logf("engine drains=%d for %d requests, shard hist=%s", sum.Batches, sum.Requests, engine.FormatHist(st.ShardHistogram))
}

// runClient drives one connection with a deterministic mixed workload
// over its private region and checks read-your-writes throughout.
func runClient(addr string, id, ops, region int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	base := int64(id * region)
	rng := blockcipher.NewRNGFromString(fmt.Sprint("client", id))
	last := make(map[int64]byte)
	for i := 0; i < ops; i++ {
		a := base + rng.Int63n(int64(region))
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(255) + 1)
			if err := c.Write(a, bytes.Repeat([]byte{v}, 64)); err != nil {
				return fmt.Errorf("client %d: write %d: %w", id, a, err)
			}
			last[a] = v
		} else {
			got, err := c.Read(a)
			if err != nil {
				return fmt.Errorf("client %d: read %d: %w", id, a, err)
			}
			want := bytes.Repeat([]byte{last[a]}, 64)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("client %d: read-your-writes violated at %d", id, a)
			}
		}
	}
	return nil
}

// TestMultiVerb checks that MULTI runs a whole slice as one batch and
// returns per-op responses in order.
func TestMultiVerb(t *testing.T) {
	addr, srv := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := []client.Op{
		{Write: true, Addr: 3, Data: bytes.Repeat([]byte{1}, 64)},
		{Write: true, Addr: 4, Data: bytes.Repeat([]byte{2}, 64)},
		{Addr: 3},
		{Addr: 4},
		{Addr: 5},
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !bytes.Equal(res[2].Data, ops[0].Data) || !bytes.Equal(res[3].Data, ops[1].Data) {
		t.Fatal("MULTI reads did not observe MULTI writes")
	}
	if !bytes.Equal(res[4].Data, make([]byte, 64)) {
		t.Fatal("unwritten block not zero")
	}
	st := srv.Stats()
	if st.Batches != 1 || st.Requests != int64(len(ops)) {
		t.Fatalf("MULTI ran as %d batches / %d requests, want 1 / %d", st.Batches, st.Requests, len(ops))
	}
	if st.MeanBatch != float64(len(ops)) {
		t.Fatalf("mean batch %.2f, want %d", st.MeanBatch, len(ops))
	}
}

// TestProtocolErrors exercises the refusal paths over a raw socket.
func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		fmt.Fprintln(conn, line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}
	for _, tc := range []struct{ line, wantPrefix string }{
		{"FROB", "ERR unknown command"},
		{"READ", "ERR usage"},
		{"READ zzz", "ERR bad address"},
		{"READ 99999", "ERR address 99999 out of range"},
		{"WRITE 1 xyz", "ERR bad hex payload"},
		{"WRITE 1 abcd", "ERR payload 2 bytes"},
		{"MULTI", "ERR usage"},
	} {
		if got := send(tc.line); !strings.HasPrefix(got, tc.wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.line, got, tc.wantPrefix)
		}
	}
	// A bad sub-line aborts the whole MULTI with one ERR line, drains
	// the declared frame (the trailing WRITE must NOT execute as a
	// top-level command) and keeps the connection usable and in sync.
	fmt.Fprintln(conn, "MULTI 3")
	fmt.Fprintln(conn, "READ 1")
	fmt.Fprintln(conn, "STATS")
	fmt.Fprintln(conn, "WRITE 2 "+strings.Repeat("ff", 64))
	if resp := send("READ 2"); !strings.HasPrefix(resp, "ERR MULTI line 2") {
		t.Fatalf("bad MULTI sub-line -> %q", resp)
	} else if resp := send("READ 2"); resp != "OK "+strings.Repeat("00", 64) {
		t.Fatalf("connection desynced or drained WRITE executed: READ 2 -> %q", resp)
	}
}

// TestMultiBadCountClosesConnection: an unusable MULTI count makes the
// frame length untrustworthy, so the server answers ERR and closes
// rather than risk executing payload lines as commands.
func TestMultiBadCountClosesConnection(t *testing.T) {
	addr, _ := startServer(t, Config{})
	for _, line := range []string{"MULTI 0", "MULTI 99999", "MULTI zz"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		fmt.Fprintln(conn, line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%q: no ERR before close: %v", line, err)
		}
		if !strings.HasPrefix(resp, "ERR MULTI count") {
			t.Errorf("%q -> %q, want ERR MULTI count", line, resp)
		}
		if _, err := r.ReadString('\n'); err == nil {
			t.Errorf("%q: connection stayed open after unusable count", line)
		}
		conn.Close()
	}
}

// TestClientBatchCap: the client refuses batches over the protocol
// cap instead of desyncing the server, and the two packages agree on
// the cap.
func TestClientBatchCap(t *testing.T) {
	if client.MaxBatchOps != MaxMultiRequests {
		t.Fatalf("client.MaxBatchOps = %d, server.MaxMultiRequests = %d", client.MaxBatchOps, MaxMultiRequests)
	}
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Batch(make([]client.Op, client.MaxBatchOps+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestOversizedLineSurfacesError checks the scanner failure path: a
// line over the 1 MiB limit must produce an ERR response, not a
// silent hangup.
func TestOversizedLineSurfacesError(t *testing.T) {
	addr, _ := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := make([]byte, MaxLineBytes+16)
	for i := range big {
		big[i] = 'a'
	}
	big = append(big, '\n')
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no ERR before close: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR ") || !strings.Contains(resp, "too long") {
		t.Fatalf("oversized line -> %q, want ERR ... too long", resp)
	}
}

// TestConnLimit checks that connections over MaxConns are refused
// with a protocol-level error.
func TestConnLimit(t *testing.T) {
	addr, srv := startServer(t, Config{MaxConns: 1})
	keep, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	// Prove the first connection is registered before dialing the
	// second one.
	fmt.Fprintln(keep, "STATS")
	if _, err := bufio.NewReader(keep).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	extra, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	resp, err := bufio.NewReader(extra).ReadString('\n')
	if err != nil {
		t.Fatalf("refused connection got no ERR: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR server busy") {
		t.Fatalf("over-limit connect -> %q, want ERR server busy", resp)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestGracefulShutdown: Close while clients are mid-traffic lets
// in-flight requests complete, Serve returns nil, and a later Serve
// refuses.
func TestGracefulShutdown(t *testing.T) {
	store, err := engine.New(engine.Options{
		Blocks: 256, BlockSize: 64, MemoryBytes: 16 << 10, Insecure: true, Seed: "shutdown", Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Engine: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after Close returned %v, want nil", err)
	}
	if err := srv.Serve(ln); err != ErrClosed {
		t.Fatalf("Serve on closed server returned %v, want ErrClosed", err)
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedSingleConnection checks that one connection pipelining
// requests from many goroutines stays correct and in order.
func TestPipelinedSingleConnection(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := int64(w)
			payload := bytes.Repeat([]byte{byte(w + 1)}, 64)
			for i := 0; i < 15; i++ {
				if err := c.Write(a, payload); err != nil {
					t.Error(err)
					return
				}
				got, err := c.Read(a)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("worker %d: wrong payload", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStatsLine checks the STATS response carries both engine and
// batching counters.
func TestStatsLine(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "hits", "misses", "shuffles", "quanta", "max_cycle", "batches", "mean_batch", "conns", "hist",
		"shards", "shard_hist", "s0_depth", "s0_cycles", "s0_pad", "s0_quanta", "s0_maxcycle", "s0_batches", "s0_hist", "s1_depth", "s1_hist"} {
		if _, ok := kv[key]; !ok {
			t.Errorf("STATS missing %q (got %v)", key, kv)
		}
	}
	st, err := client.ParseStats(kv)
	if err != nil {
		t.Fatalf("ParseStats: %v", err)
	}
	if st.Requests != 1 {
		t.Errorf("requests = %d, want 1", st.Requests)
	}
	if st.Shards != 2 {
		t.Errorf("shards = %d, want 2", st.Shards)
	}
}

// TestPerShardStatsAggregation is the regression test for the STATS
// fix: the server used to report only a single global batch histogram;
// it now reports one histogram per shard plus their aggregation, and
// the aggregation must reconcile exactly with both the per-shard
// counters and the server's window-level counters.
func TestPerShardStatsAggregation(t *testing.T) {
	e, err := engine.New(engine.Options{
		Blocks:      512,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "per-shard-stats",
		Shards:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	addr, srv := startServer(t, Config{Engine: e})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two MULTI windows spanning the whole address space, so every
	// shard drains at least once.
	for round := 0; round < 2; round++ {
		ops := make([]client.Op, 32)
		for i := range ops {
			ops[i] = client.Op{Addr: int64(round*256 + i*8)}
		}
		res, err := c.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, r.Err)
			}
		}
	}

	st := srv.Stats()
	if len(st.PerShard) != 4 {
		t.Fatalf("PerShard has %d entries, want 4", len(st.PerShard))
	}
	// Every logical request drains in exactly one shard: the per-shard
	// request counts must sum to the server's window-level total.
	var shardReqs, shardBatches int64
	var wantAgg [engine.NumBuckets]int64
	for _, sh := range st.PerShard {
		if sh.Requests == 0 || sh.Batches == 0 {
			t.Fatalf("shard %d drained nothing from an address-space-spanning workload", sh.Shard)
		}
		var bucketSum int64
		for b, n := range sh.Hist {
			bucketSum += n
			wantAgg[b] += n // summed by hand: must not share code with Stats()
		}
		if bucketSum != sh.Batches {
			t.Fatalf("shard %d histogram buckets sum to %d, Batches = %d", sh.Shard, bucketSum, sh.Batches)
		}
		shardReqs += sh.Requests
		shardBatches += sh.Batches
	}
	if shardReqs != st.Requests {
		t.Fatalf("per-shard requests sum to %d, server drained %d", shardReqs, st.Requests)
	}
	if st.ShardHistogram != wantAgg {
		t.Fatalf("ShardHistogram %v is not the element-wise sum of the per-shard histograms %v", st.ShardHistogram, wantAgg)
	}
	var aggBuckets int64
	for _, n := range st.ShardHistogram {
		aggBuckets += n
	}
	if aggBuckets != shardBatches {
		t.Fatalf("aggregated histogram counts %d drains, shards report %d", aggBuckets, shardBatches)
	}
	// The engine's own summary must agree with the server's view.
	if sum := e.Stats(); sum.Requests != st.Requests || sum.Batches != shardBatches {
		t.Fatalf("engine summary (requests=%d batches=%d) disagrees with server (requests=%d batches=%d)",
			sum.Requests, sum.Batches, st.Requests, shardBatches)
	}
}
