// Wire-level tests for the oblivious key–value verbs and their STATS
// counters — the serving-layer face of internal/okv.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/okv"
)

// rawConn is a bare protocol connection for malformed-line tests the
// typed client cannot produce.
type rawConn struct {
	w *bufio.Writer
	r *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{w: bufio.NewWriter(conn), r: bufio.NewReader(conn)}
}

func (rc *rawConn) roundTrip(t *testing.T, line string) string {
	t.Helper()
	fmt.Fprintln(rc.w, line)
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := rc.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
}

// startKVServer is startServer with the KV layer laid over the
// engine.
func startKVServer(t *testing.T) (string, *Server, *okv.Store) {
	t.Helper()
	e, err := engine.New(engine.Options{
		Blocks:      512,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "kv-server-test",
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	store, err := okv.New(okv.Options{
		Backend:        e,
		SlotsPerBucket: 2,
		MaxValueBytes:  128,
		Insecure:       true,
		Seed:           "kv-server-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, Config{Engine: e, KV: store})
	return addr, srv, store
}

// TestKVVerbs drives the full verb set over real TCP through the
// pipelining client: set, update, hit, miss, empty value, delete
// (present and absent), value-cap refusal.
func TestKVVerbs(t *testing.T) {
	addr, _, store := startKVServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := []byte("alice")
	if _, ok, err := c.KGet(key); err != nil || ok {
		t.Fatalf("KGet before set = (ok=%v, err=%v), want miss", ok, err)
	}
	if err := c.KSet(key, []byte("patient file #1842")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.KGet(key); err != nil || !ok || string(v) != "patient file #1842" {
		t.Fatalf("KGet = (%q, %v, %v)", v, ok, err)
	}
	if err := c.KSet(key, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.KGet(key); err != nil || !ok || string(v) != "updated" {
		t.Fatalf("KGet after update = (%q, %v, %v)", v, ok, err)
	}
	// Empty value: a hit, distinguishable from a miss.
	if err := c.KSet([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.KGet([]byte("empty")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("KGet(empty value) = (%q, %v, %v), want empty hit", v, ok, err)
	}
	// Binary keys and values survive the hex framing.
	bkey := []byte{0x00, '\n', ' ', 0xff}
	bval := bytes.Repeat([]byte{0x00, 0xff}, 40)
	if err := c.KSet(bkey, bval); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.KGet(bkey); err != nil || !ok || !bytes.Equal(v, bval) {
		t.Fatalf("KGet(binary) = (%d bytes, %v, %v)", len(v), ok, err)
	}
	// Over-cap value surfaces the typed refusal as an ERR line.
	if err := c.KSet(key, make([]byte, store.MaxValueBytes()+1)); err == nil || !strings.Contains(err.Error(), "over MaxValueBytes") {
		t.Fatalf("over-cap KSET: %v", err)
	}
	// Deletes: present then absent.
	if existed, err := c.KDel(key); err != nil || !existed {
		t.Fatalf("KDel(present) = (%v, %v)", existed, err)
	}
	if existed, err := c.KDel(key); err != nil || existed {
		t.Fatalf("KDel(absent) = (%v, %v)", existed, err)
	}
	if _, ok, err := c.KGet(key); err != nil || ok {
		t.Fatalf("KGet after delete = (ok=%v, err=%v), want miss", ok, err)
	}
	if n := store.Len(); n != 2 {
		t.Fatalf("store.Len() = %d, want 2 (empty + binary)", n)
	}
}

// TestKVStatsCounters is the STATS regression alongside the per-shard
// stats tests: the kv_* keys must be present, must reconcile exactly
// with the driven workload, and must be absent without the KV layer.
func TestKVStatsCounters(t *testing.T) {
	addr, _, _ := startKVServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 3 sets (2 inserts + 1 update), 4 gets (1 miss), 2 dels (1 absent).
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"a", "3"}} {
		if err := c.KSet([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "b", "a", "ghost"} {
		if _, _, err := c.KGet([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"b", "ghost"} {
		if _, err := c.KDel([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}

	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"kv_count":  1, // a remains
		"kv_gets":   4,
		"kv_sets":   3,
		"kv_dels":   2,
		"kv_misses": 2, // ghost get + ghost del
	}
	st, err := client.ParseStats(kv)
	if err != nil {
		t.Fatalf("ParseStats: %v (line: %v)", err, kv)
	}
	if st.KV == nil {
		t.Fatalf("STATS carries no kv group (line: %v)", kv)
	}
	got := map[string]int64{
		"kv_count":  st.KV.Count,
		"kv_gets":   st.KV.Gets,
		"kv_sets":   st.KV.Sets,
		"kv_dels":   st.KV.Dels,
		"kv_misses": st.KV.Misses,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("STATS %s = %d, want %d", k, got[k], n)
		}
	}
	if st.KV.Capacity <= 0 {
		t.Errorf("STATS kv_capacity = %d, want > 0", st.KV.Capacity)
	}

	// A plain block server must not advertise KV counters.
	plainAddr, _ := startServer(t, Config{})
	pc, err := client.Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pkv, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pkv["kv_gets"]; ok {
		t.Error("plain block server advertises kv_gets")
	}
}

// TestKVModeProtocolBoundaries: K verbs without the KV layer are
// refused with a helpful error; raw WRITE under KV mode is refused
// (the block space backs the table) while raw READ stays available;
// malformed K lines get usage errors without killing the connection.
func TestKVModeProtocolBoundaries(t *testing.T) {
	// No KV layer: K verbs refused.
	plainAddr, _ := startServer(t, Config{})
	pc, err := client.Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, _, err := pc.KGet([]byte("k")); err == nil || !strings.Contains(err.Error(), "kv disabled") {
		t.Fatalf("KGET without KV layer: %v", err)
	}

	// KV mode: raw WRITE refused, raw READ served.
	addr, _, _ := startKVServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, make([]byte, 64)); err == nil || !strings.Contains(err.Error(), "WRITE disabled") {
		t.Fatalf("raw WRITE in KV mode: %v", err)
	}
	if _, err := c.Read(0); err != nil {
		t.Fatalf("raw READ in KV mode: %v", err)
	}

	// Malformed K lines: usage/parse errors, connection survives.
	raw := dialRaw(t, addr)
	for _, tc := range []struct{ send, wantPrefix string }{
		{"KGET", "ERR usage: KGET"},
		{"KSET", "ERR usage: KSET"},
		{"KGET zz", "ERR bad hex key"},
		{"KSET 61 zz", "ERR bad hex value"},
		{"KDEL 61 62", "ERR usage: KDEL"},
		{"KGET 61", "MISS"},
	} {
		resp := raw.roundTrip(t, tc.send)
		if !strings.HasPrefix(resp, tc.wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.send, resp, tc.wantPrefix)
		}
	}
}

// TestKVConcurrentClients: concurrent connections hammer disjoint key
// ranges through the pipelining client; every client sees
// read-your-writes on its own keys and the store's counters reconcile.
func TestKVConcurrentClients(t *testing.T) {
	addr, _, store := startKVServer(t)
	const clients, opsPer = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < opsPer; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				v := []byte(fmt.Sprintf("w%d-v%d", w, i))
				if err := c.KSet(k, v); err != nil {
					errs <- fmt.Errorf("worker %d set %d: %w", w, i, err)
					return
				}
				got, ok, err := c.KGet(k)
				if err != nil || !ok || !bytes.Equal(got, v) {
					errs <- fmt.Errorf("worker %d get %d = (%q, %v, %v)", w, i, got, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := store.Len(); n != clients*opsPer {
		t.Fatalf("store.Len() = %d, want %d", n, clients*opsPer)
	}
	st := store.Stats()
	if st.Sets != clients*opsPer || st.Gets != clients*opsPer || st.Misses != 0 {
		t.Fatalf("counters %+v do not reconcile with %d sets + %d gets", st, clients*opsPer, clients*opsPer)
	}
}
