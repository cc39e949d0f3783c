// multiclient demonstrates the batched serving layer under real
// concurrency: N independent TCP clients hammer one horamd-style
// server at once, and the engine's per-shard queues group their
// in-flight requests into shared reorder-buffer drains — one storage
// load amortised across c in-memory hits (§4.2) even though no single
// client ever batches anything itself.
//
//	go run ./examples/multiclient
//	go run ./examples/multiclient -clients 16 -ops 100
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
)

func main() {
	clients := flag.Int("clients", 8, "number of concurrent TCP clients")
	ops := flag.Int("ops", 50, "requests per client")
	shards := flag.Int("shards", 2, "H-ORAM shard count")
	flag.Parse()

	store, err := engine.New(engine.Options{
		Blocks:      16384,
		BlockSize:   512,
		MemoryBytes: 2 << 20,
		Key:         bytes.Repeat([]byte{0x17}, 32),
		Shards:      *shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: store})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("server on %s, %d clients x %d ops\n", addr, *clients, *ops)

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < *clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close() //horam:errok example teardown; the demo output is already printed
			region := int64(1024)
			base := int64(id) * region
			payload := bytes.Repeat([]byte{byte(id + 1)}, 512)
			for i := 0; i < *ops; i++ {
				a := base + int64(i)%region
				if i%2 == 0 {
					if err := c.Write(a, payload); err != nil {
						log.Fatalf("client %d: %v", id, err)
					}
				} else if _, err := c.Read(a); err != nil {
					log.Fatalf("client %d: %v", id, err)
				}
			}
		}(id)
	}
	wg.Wait()
	wall := time.Since(start)

	st := srv.Stats()
	total := *clients * *ops
	fmt.Printf("%d requests in %v wall time (%.0f req/s)\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	fmt.Printf("server windows: %d, mean window size %.2f, histogram %s\n",
		st.Batches, st.MeanBatch, st.HistogramString())
	cs := store.Stats()
	fmt.Printf("engine: shards=%d hits=%d misses=%d shuffles=%d simtime=%v\n",
		cs.Shards, cs.Hits, cs.Misses, cs.Shuffles, cs.SimTime.Round(time.Millisecond))
	for _, sh := range store.ShardStats() {
		fmt.Printf("  shard %d: drains=%d reqs=%d mean=%.2f hist=%s\n",
			sh.Shard, sh.Batches, sh.Requests, sh.MeanBatch, engine.FormatHist(sh.Hist))
	}
	srv.Close()   //horam:errok example teardown; the demo output is already printed
	store.Close() //horam:errok example teardown; the demo output is already printed
}
