package horam

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blockcipher"
)

// recordCodec owns the sealed-record hot path of one H-ORAM instance:
// the header+payload plaintext layout and the reusable scratch that
// keeps the steady state allocation-free. The per-record helpers
// replace the historical sealRecord/openRecord (which allocated a
// plaintext and a sealed buffer on every call); the run helpers seal
// or open a whole partition or path in index order on the calling
// goroutine.
type recordCodec struct {
	sealer   blockcipher.Sealer
	ptSize   int // headerSize + BlockSize
	slotSize int

	dummyPt []byte // sealed-dummy plaintext; read-only after init
}

func newRecordCodec(sealer blockcipher.Sealer, blockSize int) *recordCodec {
	ptSize := headerSize + blockSize
	c := &recordCodec{
		sealer:   sealer,
		ptSize:   ptSize,
		slotSize: ptSize + sealer.Overhead(),
		dummyPt:  make([]byte, ptSize),
	}
	c.encode(c.dummyPt, dummyAddr, nil)
	return c
}

// encode lays out one record plaintext into dst (exactly ptSize
// bytes): big-endian address header, then the payload, zero-padded
// when the payload is nil (dummies and never-written blocks).
func (c *recordCodec) encode(dst []byte, addr int64, payload []byte) {
	binary.BigEndian.PutUint64(dst[:headerSize], uint64(addr))
	n := copy(dst[headerSize:], payload)
	for i := headerSize + n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// openInto opens one sealed record into the ptSize buffer dst and
// returns the address header and the payload view aliasing dst.
func (c *recordCodec) openInto(dst, sealed []byte) (int64, []byte, error) {
	if err := blockcipher.OpenInto(c.sealer, dst, sealed); err != nil {
		return 0, nil, err
	}
	if len(dst) != c.ptSize {
		return 0, nil, fmt.Errorf("horam: record is %d bytes, want %d", len(dst), c.ptSize)
	}
	return int64(binary.BigEndian.Uint64(dst[:headerSize])), dst[headerSize:], nil
}

// sealRun batch-seals pts[i] into outs[i].
func (c *recordCodec) sealRun(pts, outs [][]byte) error {
	return blockcipher.SealBatch(c.sealer, pts, outs)
}

// openRun batch-opens sealed[i] into pts[i].
func (c *recordCodec) openRun(pts, sealed [][]byte) error {
	return blockcipher.OpenBatch(c.sealer, sealed, pts)
}

// slab carves an n×size byte slab into reusable views — the allocation
// pattern behind every run-scratch in the hot path: one backing array,
// n fixed-size windows, allocated once and reused forever.
func slab(n int64, size int) [][]byte {
	backing := make([]byte, int(n)*size)
	views := make([][]byte, n)
	for i := range views {
		views[i] = backing[i*size : (i+1)*size]
	}
	return views
}

// shufScratch is the persistent per-instance scratch of the shuffle
// quantum: slot vector, sealed slab (read inputs, then reused as seal
// outputs), two plaintext slabs (one for opened records, one for the
// write-phase encodes — separate so live payloads can alias the read
// slab while the write slab is being filled), the live-record list and
// the slot→record map. Sized to one partition, allocated on first use.
type shufScratch struct {
	slots   []int64
	sealedV [][]byte
	readPt  [][]byte
	writePt [][]byte
	recs    []shufRec
	slotOf  map[int64]int
}

type shufRec struct {
	addr int64
	data []byte
}

func (o *ORAM) shufScratchFor(partSlots int64) *shufScratch {
	if o.shuf == nil {
		o.shuf = &shufScratch{
			slots:   make([]int64, partSlots),
			sealedV: slab(partSlots, o.codec.slotSize),
			readPt:  slab(partSlots, o.codec.ptSize),
			writePt: slab(partSlots, o.codec.ptSize),
			recs:    make([]shufRec, 0, partSlots),
			slotOf:  make(map[int64]int, partSlots),
		}
	}
	return o.shuf
}
