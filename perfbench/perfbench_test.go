package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/client"
)

// TestStreamDeterminism: a stream is a function of the seed alone,
// and every key it names belongs to the connection that sends it.
func TestStreamDeterminism(t *testing.T) {
	for name, sp := range specs {
		for conn := 0; conn < conns; conn++ {
			a, err := genStream(sp, 7, conn, 512)
			if err != nil {
				t.Fatal(err)
			}
			b, err := genStream(sp, 7, conn, 512)
			if err != nil {
				t.Fatal(err)
			}
			c, err := genStream(sp, 8, conn, 512)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeStream(a), encodeStream(b)) {
				t.Errorf("%s conn %d: seed 7 gave two different streams", name, conn)
			}
			if bytes.Equal(encodeStream(a), encodeStream(c)) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", name, conn)
			}
			for _, q := range a {
				for _, o := range q.ops {
					if o.key%conns != int64(conn) {
						t.Fatalf("%s conn %d: key %d belongs to another connection", name, conn, o.key)
					}
					if o.verb != q.ops[0].verb {
						t.Fatalf("%s: a MULTI mixes reads and writes", name)
					}
					if o.verb == verbSet && (o.vlen < 1 || o.vlen > maxValueBytes) {
						t.Fatalf("%s: KSET value length %d out of [1,%d]", name, o.vlen, maxValueBytes)
					}
				}
			}
		}
	}
}

// encodeStream renders a stream as bytes, so tests can compare two
// streams for byte identity.
func encodeStream(reqs []request) []byte {
	var buf bytes.Buffer
	var rec [11]byte
	for _, r := range reqs {
		buf.WriteByte(byte(len(r.ops)))
		for _, o := range r.ops {
			rec[0] = o.verb
			binary.BigEndian.PutUint64(rec[1:9], uint64(o.key))
			binary.BigEndian.PutUint16(rec[9:11], o.vlen)
			buf.Write(rec[:])
		}
	}
	return buf.Bytes()
}

// memStore is an in-memory endpoint whose replies can be corrupted.
type memStore struct {
	blocks  map[int64][]byte
	kv      map[string][]byte
	corrupt bool
}

func newMemStore() *memStore {
	return &memStore{blocks: make(map[int64][]byte), kv: make(map[string][]byte)}
}

func (m *memStore) spoil(b []byte) []byte {
	out := append([]byte(nil), b...)
	if m.corrupt && len(out) > 0 {
		out[len(out)-1] ^= 1
	}
	return out
}

func (m *memStore) Batch(ops []client.Op) ([]client.Result, error) {
	out := make([]client.Result, len(ops))
	for i, o := range ops {
		if o.Write {
			m.blocks[o.Addr] = append([]byte(nil), o.Data...)
			continue
		}
		b, ok := m.blocks[o.Addr]
		if !ok {
			b = make([]byte, blockSize)
		}
		out[i].Data = m.spoil(b)
	}
	return out, nil
}

func (m *memStore) KGet(key []byte) ([]byte, bool, error) {
	v, ok := m.kv[string(key)]
	if !ok {
		return nil, false, nil
	}
	return m.spoil(v), true, nil
}

func (m *memStore) KSet(key, value []byte) error {
	m.kv[string(key)] = append([]byte(nil), value...)
	return nil
}

func (m *memStore) KDel(key []byte) (bool, error) {
	_, ok := m.kv[string(key)]
	delete(m.kv, string(key))
	return ok, nil
}

// TestOracleCatchesCorruption replays real streams against a correct
// store (no failures), then corrupts one reply and expects the oracle
// to count it.
func TestOracleCatchesCorruption(t *testing.T) {
	for name, sp := range specs {
		stream, err := genStream(sp, 3, 1, 400)
		if err != nil {
			t.Fatal(err)
		}
		store := newMemStore()
		r := newRunner(1, store, stream)
		for range stream {
			r.do(r.next())
		}
		if r.failed != 0 {
			t.Fatalf("%s: %d failures against a correct store: %v", name, r.failed, r.firstErr)
		}
		// Find a read whose reply carries a payload, and corrupt it.
		store.corrupt = true
		for i := 0; r.failed == 0 && i < len(stream); i++ {
			r.do(r.next())
		}
		if r.failed == 0 || r.firstErr == nil {
			t.Fatalf("%s: a corrupted reply went unnoticed", name)
		}
	}
}

// TestOracleChecks covers the individual verdicts.
func TestOracleChecks(t *testing.T) {
	o := newOracle()
	buf := make([]byte, blockSize)
	zero := make([]byte, blockSize)
	if err := o.checkBlock(5, zero, buf); err != nil {
		t.Fatalf("unwritten block must read as zeros: %v", err)
	}
	data := make([]byte, blockSize)
	o.writeBlock(5, data)
	if err := o.checkBlock(5, data, buf); err != nil {
		t.Fatal(err)
	}
	stale := make([]byte, blockSize)
	fillPattern(stale, 5, 0)
	if o.checkBlock(5, zero, buf) == nil || o.checkBlock(5, stale, buf) == nil {
		t.Fatal("stale block accepted")
	}

	v := o.setValue(9, 40)
	if err := o.checkGet(9, v, true); err != nil {
		t.Fatal(err)
	}
	if o.checkGet(9, v[:39], true) == nil || o.checkGet(9, nil, false) == nil {
		t.Fatal("wrong KGET reply accepted")
	}
	if err := o.del(9, true); err != nil {
		t.Fatal(err)
	}
	if o.checkGet(9, v, true) == nil {
		t.Fatal("KGET of a deleted key returned a value and was accepted")
	}
	if err := o.del(9, true); err == nil {
		t.Fatal("KDEL reported an absent key as existing and was accepted")
	}
}

// TestFailedRequestCounts: a transport error fails every op of the
// request.
func TestFailedRequestCounts(t *testing.T) {
	r := newRunner(0, failing{}, nil)
	r.do(request{ops: make([]op, multiOps)})
	if r.failed != multiOps || r.sent != multiOps {
		t.Fatalf("failed %d of %d, want all %d", r.failed, r.sent, multiOps)
	}
}

type failing struct{}

var errDown = errors.New("connection reset")

func (failing) Batch([]client.Op) ([]client.Result, error) { return nil, errDown }
func (failing) KGet([]byte) ([]byte, bool, error)          { return nil, false, errDown }
func (failing) KSet([]byte, []byte) error                  { return errDown }
func (failing) KDel([]byte) (bool, error)                  { return false, errDown }

func TestPercentileNeedsTail(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if _, err := percentile(ds, 0.99, minTail); err == nil {
		t.Fatal("p99 of 100 samples reported with fewer than 10 beyond it")
	}
	if d, err := percentile(ds, 0.5, minTail); err != nil || d != 50*time.Millisecond {
		t.Fatalf("p50 = %v, %v; want 50ms", d, err)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 12}, {start: 20, end: 25}}
	if got := covered(spans); got != 17 {
		t.Fatalf("covered = %d, want 17", got)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("covered(nil) = %d", got)
	}
}
