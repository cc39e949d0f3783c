package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/okv"
	"repro/internal/server"
)

// Geometry and serving configuration shared by every workload.
const (
	numBlocks     = 65536
	blockSize     = 1024
	memoryBytes   = 8 << 20
	numShards     = 2
	conns         = 2
	multiOps      = 16
	numKeys       = 16384
	maxValueBytes = 256
	// nodeBatchWindow is horamd's window on a -shard-serve node: the
	// gateway already batched.
	nodeBatchWindow = 200 * time.Microsecond
)

// engineKey is the fixed master key (horamd's default -key); the
// workload seed never reaches the engine.
var engineKey = bytes.Repeat([]byte{0x2a}, 32)

func baseOptions() engine.Options {
	return engine.Options{
		Blocks:      numBlocks,
		BlockSize:   blockSize,
		MemoryBytes: memoryBytes,
		Key:         engineKey,
		Shards:      numShards,
	}
}

// countingListener counts the bytes of every accepted connection and
// stamps the first accept.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
	// first is the first accept, as nanoseconds since processStart.
	first atomic.Int64
}

// processStart anchors accept stamps on the monotonic clock.
var processStart = time.Now()

func listen() (*countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln}, nil
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.first.CompareAndSwap(0, int64(time.Since(processStart)))
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// served is one server.Server on a counting listener.
type served struct {
	srv  *server.Server
	ln   *countingListener
	done chan error
}

func serve(cfg server.Config) (*served, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		srv.Close() //horam:errok unwinding a failed set-up
		return nil, err
	}
	s := &served{srv: srv, ln: ln, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (s *served) addr() string { return s.ln.Addr().String() }

func (s *served) close() error {
	err := s.srv.Close()
	if serr := <-s.done; serr != nil && err == nil {
		err = serr
	}
	return err
}

// node is one in-process shard node: a 1-shard engine behind a
// shard-control server, as horamd -shard-serve builds it.
type node struct {
	eng *engine.Engine
	srv *served
}

// stack is the serving stack under test, built with the constructors
// horamd uses: an engine (in-process shards, or a cluster.Connect
// gateway over shard nodes), okv for KV traffic, and a server with a
// registry and a disarmed tracer. Storage is a File device under dir
// and sealing is AES.
type stack struct {
	kv    bool
	dir   string
	eng   *engine.Engine // the engine the front server drains through
	reg   *obs.Registry
	store *okv.Store
	front *served
	nodes []*node
	// shards are the in-process H-ORAM shard clients, in shard order:
	// the engine's own shards, or each node's single shard.
	shards  []*core.Client
	clients []*client.Client
	closed  bool
}

// buildStack constructs the stack under dir, connects the load
// clients and returns the set-up time: from the start of construction
// until the server accepted its first connection.
func buildStack(kv bool, dir string, tr *tracer) (*stack, float64, error) {
	start := time.Now()
	st := &stack{kv: kv, dir: dir}
	if err := st.build(tr); err != nil {
		st.close() //horam:errok unwinding a failed set-up; the build error is the one to surface
		return nil, 0, err
	}
	for i := 0; i < conns; i++ {
		c, err := client.Dial(st.front.addr())
		if err != nil {
			st.close() //horam:errok unwinding a failed set-up
			return nil, 0, err
		}
		st.clients = append(st.clients, c)
		if i == 0 {
			// A round trip proves the accept happened.
			if _, err := c.Stats(); err != nil {
				st.close() //horam:errok unwinding a failed set-up
				return nil, 0, err
			}
		}
	}
	accepted := time.Duration(st.front.ln.first.Load())
	return st, (accepted - start.Sub(processStart)).Seconds(), nil
}

func (st *stack) build(tr *tracer) error {
	opts := baseOptions()
	if !st.kv {
		opts.DataDir = filepath.Join(st.dir, "engine")
		eng, err := engine.New(opts)
		if err != nil {
			return err
		}
		st.eng = eng
		st.shards = shardClients(eng)
		st.reg = obs.NewRegistry()
		etr := obs.NewTracer(obs.DefaultTraceSpans)
		eng.Observe(st.reg, etr)
		st.front, err = serve(server.Config{Engine: eng, Metrics: st.reg, Tracer: etr})
		return err
	}
	var placement cluster.Placement
	for i := 0; i < numShards; i++ {
		nopts, err := engine.ShardConfig(opts, i)
		if err != nil {
			return err
		}
		nopts.DataDir = filepath.Join(st.dir, fmt.Sprintf("node-%d", i))
		eng, err := engine.New(nopts)
		if err != nil {
			return err
		}
		n := &node{eng: eng}
		st.nodes = append(st.nodes, n)
		st.shards = append(st.shards, eng.Shard(0))
		reg := obs.NewRegistry()
		ntr := obs.NewTracer(obs.DefaultTraceSpans)
		eng.Observe(reg, ntr)
		n.srv, err = serve(server.Config{
			Engine:       eng,
			BatchWindow:  nodeBatchWindow,
			ShardControl: true,
			Metrics:      reg,
			Tracer:       ntr,
		})
		if err != nil {
			return err
		}
		placement.Nodes = append(placement.Nodes, n.srv.addr())
	}
	eng, err := cluster.Connect(opts, placement, client.DialConfig{Attempts: 20})
	if err != nil {
		return err
	}
	st.eng = eng
	st.reg = obs.NewRegistry()
	gtr := obs.NewTracer(obs.DefaultTraceSpans)
	eng.Observe(st.reg, gtr)
	cluster.Observe(st.reg, eng)
	// okv runs on the traced backend, disarmed outside the traced
	// descent.
	st.store, err = okv.New(okv.Options{
		Backend:        &tracedBackend{eng: eng, tr: tr, span: spanOKVEngine},
		SlotsPerBucket: okv.DefaultSlotsPerBucket,
		MaxValueBytes:  maxValueBytes,
		Key:            engineKey,
	})
	if err != nil {
		return err
	}
	st.front, err = serve(server.Config{Engine: eng, KV: st.store, Metrics: st.reg, Tracer: gtr})
	return err
}

// close tears the stack down in dependency order and reports every
// failure.
func (st *stack) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	var errs []error
	for _, c := range st.clients {
		errs = append(errs, c.Close())
	}
	if st.front != nil {
		errs = append(errs, st.front.close())
	}
	if st.store != nil {
		st.store.Close()
	}
	if st.eng != nil {
		errs = append(errs, st.eng.Close())
	}
	for _, n := range st.nodes {
		if n.srv != nil {
			errs = append(errs, n.srv.close())
		}
		errs = append(errs, n.eng.Close())
	}
	return errors.Join(errs...)
}

// cycles reads every shard's cumulative cycle count through the
// engine's backends (over the wire for a gateway).
func (st *stack) cycles() ([]int64, error) {
	out := make([]int64, st.eng.Shards())
	for i := range out {
		n, err := st.eng.Backend(i).Cycles()
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// checkLeveled enforces the cross-shard leveling invariant: with the
// system idle, every shard has run the same number of cycles.
func (st *stack) checkLeveled() error {
	cs, err := st.cycles()
	if err != nil {
		return fmt.Errorf("leveling guard: %w", err)
	}
	for _, n := range cs[1:] {
		if n != cs[0] {
			return fmt.Errorf("leveling guard: per-shard cycle counts %v differ at quiescence", cs)
		}
	}
	return nil
}

// shuffled reports whether every shard has completed a shuffle
// period.
func shuffled(shards []*core.Client) bool {
	for _, sh := range shards {
		if sh.Stats().Shuffles < 1 {
			return false
		}
	}
	return true
}

// shardClients lists an in-process engine's shard clients.
func shardClients(eng *engine.Engine) []*core.Client {
	out := make([]*core.Client, eng.Shards())
	for i := range out {
		out[i] = eng.Shard(i)
	}
	return out
}

// counters is a snapshot of every layer counter the benchmark reads,
// taken with the system idle.
type counters struct {
	srvRequests, srvWindows int64
	frontBytes, nodeBytes   int64
	engOps, engBatches      int64
	cycles, padded          int64
	requests, misses, dummy int64
	shuffles, quanta        int64
	stor, mem               device.Stats
	syncs                   int64
	sealed, opened          int64
}

func (st *stack) snapshot() (counters, error) {
	var c counters
	ss := st.front.srv.Stats()
	c.srvRequests, c.srvWindows = ss.Requests, ss.Batches
	c.frontBytes = st.front.ln.bytes.Load()
	for _, n := range st.nodes {
		c.nodeBytes += n.srv.ln.bytes.Load()
	}
	var err error
	if c.engOps, err = promCounter(st.reg, "horam_engine_ops_total"); err != nil {
		return c, err
	}
	if c.engBatches, err = promCounter(st.reg, "horam_engine_batches_total"); err != nil {
		return c, err
	}
	es := st.eng.Stats()
	c.cycles, c.padded = es.Cycles, es.Padded
	for _, sh := range st.shards {
		hs := sh.Stats()
		c.requests += hs.Requests
		c.misses += hs.Misses
		c.dummy += hs.DummyIO
		c.shuffles += hs.Shuffles
		c.quanta += hs.ShuffleQuanta
		o := sh.Engine()
		c.stor = c.stor.Add(o.Stor().Stats())
		c.mem = c.mem.Add(o.Mem().Stats())
		f, ok := o.Stor().(*device.File)
		if !ok {
			return c, fmt.Errorf("storage tier is %T, want *device.File", o.Stor())
		}
		c.syncs += f.Syncs()
	}
	c.sealed, c.opened = blockcipher.Throughput()
	return c, nil
}

// promCounter reads one unlabelled counter from the registry's
// Prometheus exposition.
func promCounter(reg *obs.Registry, name string) (int64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("registry has no counter %s", name)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, int, error) {
	var total int64
	files := 0
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		files++
		return nil
	})
	return total, files, err
}
