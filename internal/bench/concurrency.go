// Serving-layer benchmark: throughput versus number of concurrent TCP
// clients through the batched front end (internal/server). Unlike the
// paper-table experiments, this one measures real wall-clock time over
// real loopback sockets — the point is the serving stack, not the
// simulated devices — and reports the observed mean scheduler drain
// size so the request-grouping win (§4.2, §5.3.2) is visible directly
// in BENCH output. The grouping happens in the engine's per-shard
// queues, which merge the connections' concurrent requests.
package bench

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
)

// ConcurrencyRow is one client-count measurement.
type ConcurrencyRow struct {
	Clients    int
	Requests   int
	Wall       time.Duration
	Throughput float64 // requests per wall-clock second
	MeanBatch  float64 // mean logical requests per scheduler drain
	Batches    int64   // scheduler drains, summed over shards
}

// RunConcurrency measures serving throughput for each client count:
// a fresh store and server per row, each client driving perClient
// mixed read/write requests over its own TCP connection and private
// address region.
func RunConcurrency(clients []int, perClient int) ([]ConcurrencyRow, error) {
	rows := make([]ConcurrencyRow, 0, len(clients))
	for _, n := range clients {
		row, err := runConcurrencyOne(n, perClient)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runConcurrencyOne(clients, perClient int) (ConcurrencyRow, error) {
	const (
		blockSize = 256
		region    = 256
	)
	store, err := engine.New(engine.Options{
		Blocks:      int64(clients) * region * 2,
		BlockSize:   blockSize,
		MemoryBytes: 1 << 20,
		Insecure:    true,
		Seed:        fmt.Sprint("concurrency-", clients),
	})
	if err != nil {
		return ConcurrencyRow{}, err
	}
	defer store.Close() //horam:errok bench teardown; the measured run is already over
	srv, err := server.New(server.Config{Engine: store})
	if err != nil {
		return ConcurrencyRow{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ConcurrencyRow{}, err
	}
	go srv.Serve(ln)
	defer srv.Close() //horam:errok bench teardown; the measured run is already over

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- driveConcurrencyClient(ln.Addr().String(), id, perClient, region, blockSize)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return ConcurrencyRow{}, err
		}
	}
	wall := time.Since(start)

	sum := store.Stats()
	total := clients * perClient
	return ConcurrencyRow{
		Clients:    clients,
		Requests:   total,
		Wall:       wall,
		Throughput: float64(total) / wall.Seconds(),
		MeanBatch:  float64(sum.Requests) / float64(sum.Batches),
		Batches:    sum.Batches,
	}, nil
}

func driveConcurrencyClient(addr string, id, ops, region, blockSize int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close() //horam:errok bench teardown; the measured run is already over
	base := int64(id * region)
	rng := blockcipher.NewRNGFromString(fmt.Sprint("bench-client-", id))
	payload := bytes.Repeat([]byte{byte(id + 1)}, blockSize)
	for i := 0; i < ops; i++ {
		a := base + rng.Int63n(int64(region))
		if i%2 == 0 {
			if err := c.Write(a, payload); err != nil {
				return err
			}
		} else if _, err := c.Read(a); err != nil {
			return err
		}
	}
	return nil
}

// FormatConcurrency renders the sweep.
func FormatConcurrency(rows []ConcurrencyRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== serving layer: throughput vs concurrent clients (real TCP, wall clock) ==\n")
	fmt.Fprintf(&b, "%8s %9s %10s %11s %9s %8s\n",
		"clients", "requests", "wall", "req/s", "batches", "ĉ_obs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %9d %10s %11.0f %9d %8.2f\n",
			r.Clients, r.Requests, r.Wall.Round(time.Millisecond),
			r.Throughput, r.Batches, r.MeanBatch)
	}
	fmt.Fprintf(&b, "ĉ_obs = mean logical requests per scheduler drain; > 1 means the\n")
	fmt.Fprintf(&b, "engine's shard queues are amortising storage loads across concurrent clients.\n")
	return b.String()
}
