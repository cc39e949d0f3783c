// Cross-shard cycle leveling through the serving path: connections
// feed the engine's shard queues concurrently, so the only leveling
// point is engine quiescence. This test pins that point over real TCP.
package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
)

// TestServerLevelsOverlappingConnections runs overlapping connections
// with adversarially skewed traffic — two hammer one address each
// (driving one shard), two scan the address space uniformly (driving
// all of them) — and asserts that once every connection has its last
// answer, every shard has run the same number of cycles and every
// block reads back what was last written to it.
func TestServerLevelsOverlappingConnections(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := engine.New(engine.Options{
				Blocks:      512,
				BlockSize:   64,
				MemoryBytes: 16 << 10,
				Insecure:    true,
				Seed:        "server-level",
				Shards:      shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			addr, _ := startServer(t, Config{Engine: e})

			const (
				hotOps    = 60
				scanFirst = 64  // the scans cover [scanFirst, 512)
				scanWidth = 224 // blocks per scanning connection
			)
			hotAddrs := []int64{3, 40}
			want := make(map[int64][]byte)
			var wantMu sync.Mutex
			record := func(a int64, v []byte) {
				wantMu.Lock()
				want[a] = v
				wantMu.Unlock()
			}

			var wg sync.WaitGroup
			errs := make(chan error, len(hotAddrs)+2)
			for i, a := range hotAddrs {
				wg.Add(1)
				go func(i int, a int64) {
					defer wg.Done()
					errs <- hammer(addr, a, byte(i+1), hotOps, record)
				}(i, a)
			}
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(lo int64) {
					defer wg.Done()
					errs <- scan(addr, lo, lo+scanWidth, record)
				}(int64(scanFirst + i*scanWidth))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			assertLeveled(t, e, "after overlapping traffic")

			// Clean read-back through a fresh connection.
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for a := int64(0); a < 512; a += client.MaxBatchOps / 4 {
				ops := make([]client.Op, 0, client.MaxBatchOps/4)
				for b := a; b < a+client.MaxBatchOps/4 && b < 512; b++ {
					ops = append(ops, client.Op{Addr: b})
				}
				res, err := c.Batch(ops)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					b := ops[i].Addr
					exp, ok := want[b]
					if !ok {
						exp = make([]byte, 64)
					}
					if r.Err != nil || !bytes.Equal(r.Data, exp) {
						t.Fatalf("addr %d read back %x (err %v), want %x", b, r.Data, r.Err, exp)
					}
				}
			}
			assertLeveled(t, e, "after read-back")
		})
	}
}

// hammer writes then reads one address ops times, checking
// read-your-writes, and records the final value.
func hammer(addr string, a int64, tag byte, ops int, record func(int64, []byte)) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var last []byte
	for i := 0; i < ops; i++ {
		last = bytes.Repeat([]byte{tag, byte(i)}, 32)
		if err := c.Write(a, last); err != nil {
			return fmt.Errorf("hot write %d: %w", a, err)
		}
		got, err := c.Read(a)
		if err != nil {
			return fmt.Errorf("hot read %d: %w", a, err)
		}
		if !bytes.Equal(got, last) {
			return fmt.Errorf("hot address %d: read-your-writes violated", a)
		}
	}
	record(a, last)
	return nil
}

// scan writes every block of [lo, hi) in MULTIs of 16 and records
// each value.
func scan(addr string, lo, hi int64, record func(int64, []byte)) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for a := lo; a < hi; a += 16 {
		ops := make([]client.Op, 0, 16)
		for b := a; b < a+16 && b < hi; b++ {
			ops = append(ops, client.Op{Write: true, Addr: b, Data: bytes.Repeat([]byte{byte(b), byte(b >> 8)}, 32)})
		}
		res, err := c.Batch(ops)
		if err != nil {
			return fmt.Errorf("scan at %d: %w", a, err)
		}
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("scan write %d: %w", ops[i].Addr, r.Err)
			}
			record(ops[i].Addr, ops[i].Data)
		}
	}
	return nil
}

// assertLeveled fails unless every shard has run the same cumulative
// number of scheduler cycles.
func assertLeveled(t *testing.T, e *engine.Engine, when string) {
	t.Helper()
	st := e.ShardStats()
	for _, sh := range st[1:] {
		if sh.Cycles != st[0].Cycles {
			cycles := make([]int64, len(st))
			for i, s := range st {
				cycles[i] = s.Cycles
			}
			t.Fatalf("%s: per-shard cycles %v are not leveled", when, cycles)
		}
	}
}
