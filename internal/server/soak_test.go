// Race-detector soak: N concurrent clients fire MULTI batches at a
// sharded daemon over real loopback sockets while a poller hammers
// STATS. Runs in the CI race job (go test -race ./internal/server),
// where it sweeps the whole serving path — connection goroutines
// calling engine.Batch concurrently, the engine's scatter/gather, the per-shard
// scheduler goroutines and the stats plumbing — for data races, and
// asserts read-your-writes semantics end to end.
package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/client"
	"repro/internal/engine"
)

func TestShardedSoakOverSockets(t *testing.T) {
	const (
		shards    = 4
		clients   = 6
		rounds    = 24
		batchOps  = 8
		region    = 64 // private blocks per client
		blockSize = 64
	)
	e, err := engine.New(engine.Options{
		Blocks:      clients * region,
		BlockSize:   blockSize,
		MemoryBytes: 32 << 10,
		Insecure:    true,
		Seed:        "soak",
		Shards:      shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	addr, srv := startServer(t, Config{Engine: e})

	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	// A stats poller races the traffic: STATS snapshots per-shard
	// counters while every shard is mid-drain.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if _, err := c.Stats(); err != nil {
				errs <- fmt.Errorf("stats poller: %w", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- soakClient(addr, id, rounds, batchOps, region, blockSize)
		}(id)
	}
	// Wait for the traffic clients, then release the poller.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if want := int64(clients * rounds * batchOps); st.Requests != want {
		t.Fatalf("server drained %d requests, want %d", st.Requests, want)
	}
	var shardReqs int64
	for _, sh := range st.PerShard {
		shardReqs += sh.Requests
	}
	if shardReqs != st.Requests {
		t.Fatalf("shards drained %d requests, server drained %d", shardReqs, st.Requests)
	}
}

// soakClient drives one connection with MULTI batches of mixed
// read/write traffic over its private region, asserting
// read-your-writes: every read must see the last value this client
// wrote (overlay semantics for writes earlier in the same batch).
func soakClient(addr string, id, rounds, batchOps, region, blockSize int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	base := int64(id * region)
	rng := blockcipher.NewRNGFromString(fmt.Sprint("soak-client-", id))
	last := make(map[int64]byte)
	for r := 0; r < rounds; r++ {
		ops := make([]client.Op, batchOps)
		vals := make([]byte, batchOps)
		for i := range ops {
			a := base + rng.Int63n(int64(region))
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1)
				vals[i] = v
				ops[i] = client.Op{Write: true, Addr: a, Data: bytes.Repeat([]byte{v}, blockSize)}
			} else {
				ops[i] = client.Op{Addr: a}
			}
		}
		res, err := c.Batch(ops)
		if err != nil {
			return fmt.Errorf("client %d round %d: %w", id, r, err)
		}
		overlay := make(map[int64]byte, batchOps)
		for i, op := range ops {
			if res[i].Err != nil {
				return fmt.Errorf("client %d round %d op %d: %w", id, r, i, res[i].Err)
			}
			if op.Write {
				overlay[op.Addr] = vals[i]
				continue
			}
			want := last[op.Addr]
			if v, ok := overlay[op.Addr]; ok {
				want = v
			}
			if !bytes.Equal(res[i].Data, bytes.Repeat([]byte{want}, blockSize)) {
				return fmt.Errorf("client %d round %d: read-your-writes violated at %d", id, r, op.Addr)
			}
		}
		for a, v := range overlay {
			last[a] = v
		}
	}
	return nil
}
