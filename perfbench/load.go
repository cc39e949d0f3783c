package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// endpoint is what a connection's load drives: the TCP client, or the
// okv store in-process during the traced descent.
type endpoint interface {
	Batch(ops []client.Op) ([]client.Result, error)
	KGet(key []byte) ([]byte, bool, error)
	KSet(key, value []byte) error
	KDel(key []byte) (bool, error)
}

// runner is one closed-loop connection: it owns the keys congruent to
// its id, walks its pre-generated stream and checks every reply
// against its oracle.
type runner struct {
	id     int
	ep     endpoint
	stream []request
	pos    int
	model  *oracle

	ops  []client.Op
	slab []byte // write payloads of one MULTI
	want []byte // expected READ payload

	sent, failed int64
	firstErr     error

	// samples holds the latencies recorded in a timed segment; timed
	// counts them for the coordinator.
	samples []sample
	timed   atomic.Int64
}

type sample struct {
	d    time.Duration // request latency
	end  time.Duration // completion, since the segment started
	ops  int
	read bool
}

func newRunner(id int, ep endpoint, stream []request) *runner {
	return &runner{
		id:     id,
		ep:     ep,
		stream: stream,
		model:  newOracle(),
		ops:    make([]client.Op, multiOps),
		slab:   make([]byte, multiOps*blockSize),
		want:   make([]byte, blockSize),
	}
}

func (r *runner) resetSamples() {
	r.samples = r.samples[:0]
	r.timed.Store(0)
}

// next returns the next request, wrapping around a stream the run
// outlasted.
func (r *runner) next() request {
	q := r.stream[r.pos%len(r.stream)]
	r.pos++
	return q
}

// do issues one request and checks its reply. Failures (ERR replies,
// transport errors, read-back mismatches) are counted per logical op.
func (r *runner) do(q request) {
	r.sent += int64(len(q.ops))
	if err := r.issue(q); err != nil {
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("connection %d: %w", r.id, err)
		}
	}
}

func (r *runner) fail(n int, err error) error {
	r.failed += int64(n)
	return err
}

func (r *runner) issue(q request) error {
	o := q.ops[0]
	switch o.verb {
	case verbGet:
		val, found, err := r.ep.KGet(keyBytes(o.key))
		if err != nil {
			return r.fail(1, err)
		}
		if err := r.model.checkGet(o.key, val, found); err != nil {
			return r.fail(1, err)
		}
		return nil
	case verbSet:
		if err := r.ep.KSet(keyBytes(o.key), r.model.setValue(o.key, o.vlen)); err != nil {
			return r.fail(1, err)
		}
		return nil
	case verbDel:
		existed, err := r.ep.KDel(keyBytes(o.key))
		if err != nil {
			return r.fail(1, err)
		}
		if err := r.model.del(o.key, existed); err != nil {
			return r.fail(1, err)
		}
		return nil
	}
	ops := r.ops[:len(q.ops)]
	for i, o := range q.ops {
		ops[i] = client.Op{Addr: o.key}
		if o.verb == verbWrite {
			data := r.slab[i*blockSize : (i+1)*blockSize]
			r.model.writeBlock(o.key, data)
			ops[i].Write = true
			ops[i].Data = data
		}
	}
	res, err := r.ep.Batch(ops)
	if err != nil {
		return r.fail(len(ops), err)
	}
	var first error
	for i, o := range q.ops {
		err := res[i].Err
		if err == nil && o.verb == verbRead {
			err = r.model.checkBlock(o.key, res[i].Data, r.want)
		}
		if err != nil {
			r.failed++
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// segment runs every runner closed-loop until until reports true
// (polled every 10ms), recording latencies when record is set and a
// span per request when tr is not nil. It returns the wall time from
// start until the last in-flight request completed.
func segment(runners []*runner, record bool, tr *tracer, until func(elapsed time.Duration) bool) time.Duration {
	var halt atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, r := range runners {
		wg.Add(1)
		go func(r *runner) {
			defer wg.Done()
			for !halt.Load() {
				q := r.next()
				id := -1
				if tr != nil {
					id = tr.begin(spanLoad, -1, int64(r.pos), laneLoad+r.id)
				}
				t := time.Now()
				r.do(q)
				if id >= 0 {
					tr.end(id)
				}
				if record {
					now := time.Now()
					r.samples = append(r.samples, sample{d: now.Sub(t), end: now.Sub(start), ops: len(q.ops), read: q.isRead()})
					r.timed.Add(1)
				}
			}
		}(r)
	}
	for !until(time.Since(start)) {
		time.Sleep(10 * time.Millisecond)
	}
	halt.Store(true)
	wg.Wait()
	return time.Since(start)
}
