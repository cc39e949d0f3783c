package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/blockcipher"
	"repro/internal/workload"
)

// Verbs of one logical operation.
const (
	verbRead uint8 = iota
	verbWrite
	verbGet
	verbSet
	verbDel
)

// op is one logical operation: a block READ/WRITE inside a MULTI, or
// one KV verb. key is the block address or the KV key index; vlen is
// the value length of a KSET.
type op struct {
	verb uint8
	key  int64
	vlen uint16
}

// request is one client request: a MULTI batch of block ops (all
// reads or all writes) or a single KV verb.
type request struct {
	ops []op
}

func (r request) isRead() bool {
	v := r.ops[0].verb
	return v == verbRead || v == verbGet
}

// spec is one workload's traffic definition.
type spec struct {
	name string
	kv   bool
	// readFrac is the share of read MULTIs (block) or KGETs (KV).
	readFrac float64
	// setFrac is the share of KSETs; the rest of the KV mix is KDEL.
	setFrac float64
	// gen builds the key generator of one connection.
	gen func(rng *blockcipher.RNG) (workload.Generator, error)
}

var specs = map[string]spec{
	"block-hot": {
		name:     "block-hot",
		readFrac: 0.7,
		gen: func(rng *blockcipher.RNG) (workload.Generator, error) {
			return workload.NewHotspot(numBlocks, 0.8, 0.02, rng)
		},
	},
	"block-cold": {
		name:     "block-cold",
		readFrac: 0.3,
		gen: func(rng *blockcipher.RNG) (workload.Generator, error) {
			return workload.NewUniform(numBlocks, rng)
		},
	},
	"kv-cluster": {
		name:     "kv-cluster",
		kv:       true,
		readFrac: 0.6,
		setFrac:  0.3,
		gen: func(rng *blockcipher.RNG) (workload.Generator, error) {
			return workload.NewZipf(numKeys, 0.99, rng)
		},
	},
}

// own maps a generated key onto the keys connection conn owns: those
// congruent to conn modulo conns. The space sizes are multiples of
// conns, so the result stays in range and the key's neighbourhood
// (hot region, Zipf rank) is kept.
func own(key int64, conn int) int64 {
	return key - key%conns + int64(conn)
}

// genStream builds connection conn's request stream from the seed
// alone. The stream is materialised before any timing starts.
func genStream(sp spec, seed int64, conn, n int) ([]request, error) {
	rng := blockcipher.NewRNGFromString(fmt.Sprintf("perfbench/%s/seed-%d/conn-%d", sp.name, seed, conn))
	keys, err := sp.gen(rng.Fork("keys"))
	if err != nil {
		return nil, err
	}
	mix := rng.Fork("mix")
	out := make([]request, n)
	if !sp.kv {
		flat := make([]op, n*multiOps)
		for i := range out {
			verb := verbWrite
			if mix.Float64() < sp.readFrac {
				verb = verbRead
			}
			ops := flat[i*multiOps : (i+1)*multiOps : (i+1)*multiOps]
			for j := range ops {
				ops[j] = op{verb: verb, key: own(keys.Next(), conn)}
			}
			out[i] = request{ops: ops}
		}
		return out, nil
	}
	flat := make([]op, n)
	for i := range out {
		o := op{key: own(keys.Next(), conn)}
		switch u := mix.Float64(); {
		case u < sp.readFrac:
			o.verb = verbGet
		case u < sp.readFrac+sp.setFrac:
			o.verb = verbSet
			o.vlen = uint16(1 + mix.Intn(maxValueBytes))
		default:
			o.verb = verbDel
		}
		flat[i] = o
		out[i] = request{ops: flat[i : i+1 : i+1]}
	}
	return out, nil
}

// fillPattern writes the deterministic payload of (key, version) into
// dst: an 8-byte key and 4-byte version header, then xorshift filler
// seeded by both. Short destinations get a prefix of the same bytes.
func fillPattern(dst []byte, key int64, version uint32) {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(key))
	binary.BigEndian.PutUint32(hdr[8:], version)
	n := copy(dst, hdr[:])
	x := uint64(key)*0x9e3779b97f4a7c15 ^ uint64(version)<<32 ^ 0x5851f42d4c957f2d
	var word [8]byte
	for n < len(dst) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(word[:], x)
		n += copy(dst[n:], word[:])
	}
}

func keyBytes(key int64) []byte { return []byte(fmt.Sprintf("key-%05d", key)) }

// kvEntry is the oracle's view of one key.
type kvEntry struct {
	version uint32
	vlen    uint16
	present bool
}

// oracle is one connection's model of the store. Connections own
// disjoint keys, so each model is exact without coordination: a read
// must return precisely the last payload this connection wrote.
type oracle struct {
	blocks map[int64]uint32 // block address -> last written version (0 = never written)
	kv     map[int64]kvEntry
}

func newOracle() *oracle {
	return &oracle{blocks: make(map[int64]uint32), kv: make(map[int64]kvEntry)}
}

// writeBlock advances addr's version and fills dst with its payload.
func (o *oracle) writeBlock(addr int64, dst []byte) {
	v := o.blocks[addr] + 1
	o.blocks[addr] = v
	fillPattern(dst, addr, v)
}

// checkBlock compares a READ reply with the model. buf is a
// block-sized buffer for the expected payload.
func (o *oracle) checkBlock(addr int64, got, buf []byte) error {
	v := o.blocks[addr]
	if v == 0 {
		clear(buf)
	} else {
		fillPattern(buf, addr, v)
	}
	if !bytes.Equal(got, buf) {
		return fmt.Errorf("READ %d: reply does not match version %d", addr, v)
	}
	return nil
}

// setValue advances key's version and returns the KSET value.
func (o *oracle) setValue(key int64, vlen uint16) []byte {
	e := o.kv[key]
	e.version++
	e.vlen = vlen
	e.present = true
	o.kv[key] = e
	val := make([]byte, vlen)
	fillPattern(val, key, e.version)
	return val
}

// checkGet compares a KGET reply with the model.
func (o *oracle) checkGet(key int64, val []byte, found bool) error {
	e := o.kv[key]
	if found != e.present {
		return fmt.Errorf("KGET %d: found=%v, model says present=%v", key, found, e.present)
	}
	if !found {
		return nil
	}
	want := make([]byte, e.vlen)
	fillPattern(want, key, e.version)
	if !bytes.Equal(val, want) {
		return fmt.Errorf("KGET %d: value does not match version %d (%d bytes)", key, e.version, e.vlen)
	}
	return nil
}

// del applies a KDEL and checks the reported existence.
func (o *oracle) del(key int64, existed bool) error {
	e := o.kv[key]
	was := e.present
	e.present = false
	o.kv[key] = e
	if existed != was {
		return fmt.Errorf("KDEL %d: existed=%v, model says present=%v", key, existed, was)
	}
	return nil
}
