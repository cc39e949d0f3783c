package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
)

// BenchmarkConcurrentClients measures end-to-end serving throughput
// over real TCP with varying client counts. The per-op metric shrinks
// as clients grow because the engine's shard queues amortise one
// scheduler drain across more concurrent requests; mean-drain is
// reported so the grouping is visible in bench output.
func BenchmarkConcurrentClients(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchClients(b, clients)
		})
	}
}

func benchClients(b *testing.B, clients int) {
	const (
		blockSize = 256
		region    = 128
	)
	store, err := engine.New(engine.Options{
		Blocks:      int64(clients) * region,
		BlockSize:   blockSize,
		MemoryBytes: 1 << 20,
		Insecure:    true,
		Seed:        fmt.Sprint("bench-", clients),
		Shards:      2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Engine: store})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conns := make([]*client.Client, clients)
	for i := range conns {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}

	perClient := (b.N + clients - 1) / clients
	payload := bytes.Repeat([]byte{1}, blockSize)
	b.ResetTimer()
	var wg sync.WaitGroup
	for id, c := range conns {
		wg.Add(1)
		go func(id int, c *client.Client) {
			defer wg.Done()
			base := int64(id * region)
			for i := 0; i < perClient; i++ {
				a := base + int64(i%region)
				if i%2 == 0 {
					if err := c.Write(a, payload); err != nil {
						b.Error(err)
						return
					}
				} else if _, err := c.Read(a); err != nil {
					b.Error(err)
					return
				}
			}
		}(id, c)
	}
	wg.Wait()
	b.StopTimer()
	sum := store.Stats()
	b.ReportMetric(float64(sum.Requests)/float64(sum.Batches), "mean-drain")
}
