// Command perfbench is the serving benchmark for the deployed H-ORAM
// stack: AES sealing, File storage under a temporary data directory,
// two engine shards, and closed-loop load from two TCP connections
// through internal/client. With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it prints the per-layer metrics, from the
// counters of an untraced run plus a traced layer-by-layer descent.
// perfbench/run.py builds and runs it; see perfbench/README.md.
//
//	perfbench -workload block-hot -seed 1 -seconds 40 -trace 0 -data DIR
//
// The last line of standard output is the result object; the line
// before it is the run envelope (host, CPUs, Go version, revision,
// seed, geometry, per-metric sample counts). Any read-back mismatch,
// failed counter reconciliation or unequal per-shard cycle count
// makes the command exit 1 without reporting numbers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	// streamLen is the pre-generated requests per connection; a run
	// that outlasts its stream wraps around.
	streamLen = 8192
	// warmCap bounds the wait for every shard's first shuffle period.
	warmCap = 90 * time.Second
	// minTail is the sample count a reported percentile needs beyond it.
	minTail = 10
	// minRequests is the request count that gives req_p99_ms minTail
	// samples beyond it with a margin; a timed section that has fewer
	// after its length runs on until it has them, for at most its
	// length again.
	minRequests = 1100
	// numWindows is how many windows the timed section is split into.
	numWindows = 6
	// numSetups is how many stack set-ups setup_s is the median of;
	// the last one serves the run.
	numSetups = 5
)

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int64
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "block-hot, block-cold or kv-cluster")
	seed := flag.Int64("seed", 1, "workload generator seed")
	seconds := flag.Int("seconds", 15, "length of the timed section")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced replay")
	data := flag.String("data", "", "working directory for the stores' data directories (required; removed at exit)")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans here as chrome://tracing JSON")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *data == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload block-hot|block-cold|kv-cluster -seed N -seconds S -trace 0|1 -data DIR")
		return 2
	}
	b := &bench{sp: sp, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, data: *data}
	res, err := b.run()
	if *traceOut != "" && b.tr != nil && b.traced {
		if derr := b.tr.dump(*traceOut); derr != nil && err == nil {
			err = derr
		}
	}
	if rerr := os.RemoveAll(*data); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.print(res)
	return 0
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    int64
	seconds time.Duration
	traced  bool
	data    string

	tr      *tracer
	st      *stack
	runners []*runner
}

func (b *bench) run() (res result, err error) {
	streams := make([][]request, conns)
	for c := range streams {
		if streams[c], err = genStream(b.sp, b.seed, c, streamLen); err != nil {
			return res, err
		}
	}
	b.tr = newTracer()
	var setupTimes []float64
	for i := 0; i < numSetups; i++ {
		dir := filepath.Join(b.data, fmt.Sprintf("stack-%d", i))
		st, secs, err := buildStack(b.sp.kv, dir, b.tr)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, secs)
		if i == numSetups-1 {
			b.st = st
			break
		}
		if err := st.close(); err != nil {
			return res, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
	}
	defer func() {
		if cerr := b.st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for c := 0; c < conns; c++ {
		b.runners = append(b.runners, newRunner(c, b.st.clients[c], streams[c]))
	}

	// Warm-up: the memory tier empties every shuffle period, so timing
	// starts once every shard has completed one.
	segment(b.runners, false, nil, func(el time.Duration) bool { return shuffled(b.st.shards) || el > warmCap })
	if !shuffled(b.st.shards) {
		return res, fmt.Errorf("warm-up: a shard completed no shuffle period within %v", warmCap)
	}
	if err := b.st.checkLeveled(); err != nil {
		return res, err
	}
	c0, err := b.st.snapshot()
	if err != nil {
		return res, err
	}
	sent0 := b.sent()
	for _, r := range b.runners {
		r.resetSamples()
	}
	win := &windows{width: b.seconds / numWindows}
	wall := segment(b.runners, true, nil, func(el time.Duration) bool {
		win.tick(el)
		return el >= b.seconds && (b.recorded() >= minRequests || el >= 2*b.seconds)
	})
	rss := peakRSS()
	if err := b.st.checkLeveled(); err != nil {
		return res, err
	}
	c1, err := b.st.snapshot()
	if err != nil {
		return res, err
	}
	timedOps := b.sent() - sent0
	if err := b.reconcile(c0, c1, timedOps); err != nil {
		return res, err
	}
	if err := b.checkFailures(); err != nil {
		return res, err
	}

	e2e, err := b.endToEnd(setupTimes, win, timedOps, rss)
	if err != nil {
		return res, err
	}
	metrics := e2e
	if b.traced {
		untraced := float64(timedOps) / wall.Seconds()
		if metrics, err = b.perLayer(c0, c1, timedOps, untraced, e2e["cpu_us_per_op"].Value); err != nil {
			return res, err
		}
		if err := b.checkFailures(); err != nil {
			return res, err
		}
	}

	// space_amp needs the closed store: the files are final then.
	if err := b.st.close(); err != nil {
		return res, err
	}
	if !b.traced {
		size, files, err := dirBytes(b.st.dir)
		if err != nil {
			return res, err
		}
		metrics["space_amp"] = metric{Value: float64(size) / float64(numBlocks*blockSize), Unit: "ratio", samples: int64(files)}
	}
	res = result{Correct: true, Attempted: b.sent(), Failed: b.failed(), Metrics: metrics}
	return res, nil
}

// recorded counts the requests timed so far.
func (b *bench) recorded() (n int) {
	for _, r := range b.runners {
		n += int(r.timed.Load())
	}
	return n
}

func (b *bench) sent() (n int64) {
	for _, r := range b.runners {
		n += r.sent
	}
	return n
}

func (b *bench) failed() (n int64) {
	for _, r := range b.runners {
		n += r.failed
	}
	return n
}

// checkFailures refuses the run on any failed op.
func (b *bench) checkFailures() error {
	failed := b.failed()
	if failed == 0 {
		return nil
	}
	var first error
	for _, r := range b.runners {
		if first == nil {
			first = r.firstErr
		}
	}
	return fmt.Errorf("%d of %d ops failed; first: %w", failed, b.sent(), first)
}

// reconcile fails the run when layer counts over the timed section
// disagree with the load that was sent.
func (b *bench) reconcile(c0, c1 counters, ops int64) error {
	engOps := c1.engOps - c0.engOps
	horamReqs := c1.requests - c0.requests
	want := ops
	if b.sp.kv {
		sh := b.st.store.Shape()
		want = ops * int64(sh.LookupReads+sh.ExtentReads+sh.Writes)
	}
	if engOps != want {
		return fmt.Errorf("reconciliation: engine requests %d, want %d for %d ops", engOps, want, ops)
	}
	if horamReqs != engOps {
		return fmt.Errorf("reconciliation: H-ORAM shards completed %d requests, engine accepted %d", horamReqs, engOps)
	}
	return nil
}

func (b *bench) endToEnd(setupTimes []float64, win *windows, ops int64, rss int64) (map[string]metric, error) {
	var all []sample
	for _, r := range b.runners {
		all = append(all, r.samples...)
	}
	p99, err := chunkedP99(all)
	if err != nil {
		return nil, fmt.Errorf("req_p99_ms: %w (run longer)", err)
	}
	// Throughput, CPU and medians are the median over the windows of
	// the timed section, so a burst of contention from outside the
	// benchmark moves one window, not the figure.
	var rate, cpu, p50, r50, w50 []float64
	var nReads, nWrites int64
	reads := func(s sample) bool { return s.read }
	writes := func(s sample) bool { return !s.read }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for k := 0; k+1 < len(win.at); k++ {
		lo, hi := win.at[k], win.at[k+1]
		var in []sample
		n := 0
		for _, s := range all {
			if s.end >= lo && s.end < hi {
				in = append(in, s)
				n += s.ops
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("window %d of the timed section completed no request", k)
		}
		rate = append(rate, float64(n)/(hi-lo).Seconds())
		cpu = append(cpu, float64(win.cpu[k+1]-win.cpu[k])/1e3/float64(n))
		p50 = append(p50, ms(mustPercentile(latencies(in, nil), 0.5)))
		rl, wl := latencies(in, reads), latencies(in, writes)
		r50 = append(r50, ms(mustPercentile(rl, 0.5)))
		w50 = append(w50, ms(mustPercentile(wl, 0.5)))
		nReads += int64(len(rl))
		nWrites += int64(len(wl))
	}
	windowed := nReads + nWrites
	m := map[string]metric{
		"setup_s":       {Value: median(setupTimes), Unit: "s", samples: int64(len(setupTimes))},
		"ops_per_s":     {Value: median(rate), Unit: "ops/s", samples: ops},
		"req_p50_ms":    {Value: median(p50), Unit: "ms", samples: windowed},
		"req_p99_ms":    {Value: p99, Unit: "ms", samples: int64(len(all))},
		"read_p50_ms":   {Value: median(r50), Unit: "ms", samples: nReads},
		"write_p50_ms":  {Value: median(w50), Unit: "ms", samples: nWrites},
		"cpu_us_per_op": {Value: median(cpu), Unit: "us", samples: ops},
		"peak_rss_mb":   {Value: float64(rss) / 1024, Unit: "MiB", samples: 1},
		"ok_ratio":      {Value: 1 - float64(b.failed())/float64(b.sent()), Unit: "ratio", samples: b.sent()},
	}
	return m, nil
}

// chunkedP99 splits the requests, in completion order, into as many
// equal consecutive chunks of at least minRequests as they fill, and
// returns the median of the chunks' p99 in ms. Each chunk has minTail
// samples beyond its p99; the median keeps a burst of outside
// contention that lands in one chunk from setting the figure.
func chunkedP99(all []sample) (float64, error) {
	ss := append([]sample(nil), all...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].end < ss[j].end })
	k := len(ss) / minRequests
	if k < 1 {
		k = 1
	}
	var p99s []float64
	for c := 0; c < k; c++ {
		d, err := percentile(latencies(ss[c*len(ss)/k:(c+1)*len(ss)/k], nil), 0.99, minTail)
		if err != nil {
			return 0, err
		}
		p99s = append(p99s, float64(d)/1e6)
	}
	return median(p99s), nil
}

// latencies returns the latencies of the samples keep accepts (all
// when keep is nil).
func latencies(ss []sample, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, s.d)
		}
	}
	return out
}

// windows splits the timed section into numWindows equal windows and
// samples the process CPU time at each boundary.
type windows struct {
	width time.Duration
	at    []time.Duration // boundary times, as sampled
	cpu   []time.Duration // process CPU time at each boundary
}

// tick is called with the elapsed time of the timed section, at least
// every 10ms; it records every boundary it has passed.
func (w *windows) tick(el time.Duration) {
	if len(w.at) <= numWindows && el >= time.Duration(len(w.at))*w.width {
		w.at = append(w.at, el)
		w.cpu = append(w.cpu, cpuTime())
	}
}

// percentile is the nearest-rank q-quantile. It refuses when fewer
// than tail samples lie beyond it.
func percentile(ds []time.Duration, q float64, tail int) (time.Duration, error) {
	if len(ds) == 0 {
		return 0, errors.New("no samples")
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := len(s) - 1 - rank; beyond < tail {
		return 0, fmt.Errorf("%d samples: only %d beyond the %.0fth percentile, need %d", len(s), beyond, q*100, tail)
	}
	return s[rank], nil
}

func mustPercentile(ds []time.Duration, q float64) time.Duration {
	d, err := percentile(ds, q, 0)
	if err != nil {
		return 0
	}
	return d
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set, in KiB.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// print writes one line per metric, the run envelope, and the result
// object as the last line.
func (b *bench) print(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := make(map[string]int64, len(names))
	for _, name := range names {
		m := res.Metrics[name]
		samples[name] = m.samples
		fmt.Printf("%-34s %16.6f %-8s n=%d\n", name, m.Value, m.Unit, m.samples)
	}
	host, _ := os.Hostname() //horam:errok the host name is informational
	rev, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	env := map[string]any{
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   rev,
		"modified":   modified,
		"workload":   b.sp.name,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.traced,
		"geometry": map[string]any{
			"blocks": numBlocks, "block_bytes": blockSize, "memory_bytes": memoryBytes,
			"shards": numShards, "conns": conns, "multi_ops": multiOps,
			"keys": numKeys, "max_value_bytes": maxValueBytes,
			"sealer": "aes", "device": "file", "fsync_every": 0,
		},
		"samples": samples,
	}
	line, _ := json.Marshal(map[string]any{"envelope": env}) //horam:errok plain maps always marshal
	fmt.Println(string(line))
	line, _ = json.Marshal(res) //horam:errok plain structs always marshal
	fmt.Println(string(line))
}
