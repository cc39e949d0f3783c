package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/okv"
)

// span is one call into a layer's public entry point, recorded from
// the benchmark's own code.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for none
	op         int64         // the op (request) the span serves
	tid        int           // chrome://tracing lane
}

// tracer keeps spans in memory; dump writes them as chrome://tracing
// JSON when the benchmark ends.
type tracer struct {
	t0    time.Time
	armed atomic.Bool
	// open is 1 + the index of the outer span a serial pass has open,
	// so spans recorded inside a layer (tracedBackend) find their
	// parent; 0 means none.
	open atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, op int64, tid int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: op, tid: tid})
	return len(t.spans) - 1
}

// opOf returns the op of span id, or -1 for no span.
func (t *tracer) opOf(id int) int64 {
	if id < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].op
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// stats sums the duration and the self time of every span named name.
// Self time is a span's duration minus the part of it that its child
// spans cover.
func (t *tracer) stats(name string) (total, self time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for id, s := range t.spans {
		if s.name != name {
			continue
		}
		d := s.end - s.start
		total += d
		self += d - covered(children[id])
		n++
	}
	return total, self, n
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var sum, lo, hi time.Duration
	for i, s := range spans {
		if i == 0 || s.start > hi {
			sum += hi - lo
			lo, hi = s.start, s.end
		} else if s.end > hi {
			hi = s.end
		}
	}
	return sum + hi - lo
}

// dump writes the spans as chrome://tracing JSON.
func (t *tracer) dump(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close() //horam:errok the encode error is the one to surface
		return err
	}
	return f.Close()
}

// tracedBackend is the okv.Backend the KV stores run on: the engine,
// plus — while the tracer is armed — a span named span around every
// engine batch okv issues. Disarmed, it is one atomic load in front of
// Engine.Batch.
type tracedBackend struct {
	eng  *engine.Engine
	tr   *tracer
	span string
}

var _ okv.Backend = (*tracedBackend)(nil)

func (b *tracedBackend) Blocks() int64  { return b.eng.Blocks() }
func (b *tracedBackend) BlockSize() int { return b.eng.BlockSize() }

func (b *tracedBackend) Batch(reqs []*core.Request) error {
	if !b.tr.armed.Load() {
		return b.eng.Batch(reqs)
	}
	parent := int(b.tr.open.Load()) - 1
	id := b.tr.begin(b.span, parent, b.tr.opOf(parent), laneEngine)
	err := b.eng.Batch(reqs)
	b.tr.end(id)
	return err
}

// storeEndpoint drives okv verbs in-process.
type storeEndpoint struct{ s *okv.Store }

func (e storeEndpoint) Batch([]client.Op) ([]client.Result, error) {
	return nil, errors.New("block MULTI on the KV store")
}
func (e storeEndpoint) KGet(key []byte) ([]byte, bool, error) { return e.s.Get(key) }
func (e storeEndpoint) KSet(key, value []byte) error          { return e.s.Set(key, value) }
func (e storeEndpoint) KDel(key []byte) (bool, error)         { return e.s.Del(key) }
