package blockcipher

import (
	"bytes"
	"fmt"
	"testing"
)

// fill writes a deterministic pattern so records are distinguishable.
func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*13)
	}
}

// TestBatchMatchesSequential is the determinism contract of the worker
// pool: for the same RNG state, SealBatch must produce byte-for-byte
// the sealed records a loop of Seal calls would, at every worker
// count. The device-trace equality tests upstack depend on this.
func TestBatchMatchesSequential(t *testing.T) {
	const n, size = 37, 264
	makeInputs := func() [][]byte {
		pts := make([][]byte, n)
		for i := range pts {
			pts[i] = make([]byte, size)
			fill(pts[i], byte(i))
		}
		return pts
	}

	seq := newTestSealer(t)
	pts := makeInputs()
	want := make([][]byte, n)
	for i, pt := range pts {
		ct, err := seq.Seal(pt)
		if err != nil {
			t.Fatalf("Seal record %d: %v", i, err)
		}
		want[i] = ct
	}

	for _, workers := range []int{0, 1, 2, 4, 16} {
		par := newTestSealer(t) // fresh RNG: same nonce stream as seq
		outs := make([][]byte, n)
		for i := range outs {
			outs[i] = make([]byte, size+par.Overhead())
		}
		if err := SealBatch(par, makeInputs(), outs, workers); err != nil {
			t.Fatalf("SealBatch(workers=%d): %v", workers, err)
		}
		for i := range outs {
			if !bytes.Equal(outs[i], want[i]) {
				t.Fatalf("workers=%d: record %d differs from sequential Seal", workers, i)
			}
		}

		opened := make([][]byte, n)
		for i := range opened {
			opened[i] = make([]byte, size)
		}
		if err := OpenBatch(par, outs, opened, workers); err != nil {
			t.Fatalf("OpenBatch(workers=%d): %v", workers, err)
		}
		for i := range opened {
			if !bytes.Equal(opened[i], pts[i]) {
				t.Fatalf("workers=%d: record %d did not round-trip", workers, i)
			}
		}
	}
}

func TestSealIntoOpenIntoRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	pt := make([]byte, 512)
	fill(pt, 3)
	ct := make([]byte, len(pt)+s.Overhead())
	if err := s.SealInto(ct, pt); err != nil {
		t.Fatalf("SealInto: %v", err)
	}
	got := make([]byte, len(pt))
	if err := s.OpenInto(got, ct); err != nil {
		t.Fatalf("OpenInto: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("OpenInto did not recover the plaintext")
	}
}

func TestOpenBatchAuthFailure(t *testing.T) {
	s := newTestSealer(t)
	const n, size = 8, 128
	pts := make([][]byte, n)
	outs := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, size)
		fill(pts[i], byte(i))
		outs[i] = make([]byte, size+s.Overhead())
	}
	if err := SealBatch(s, pts, outs, 4); err != nil {
		t.Fatalf("SealBatch: %v", err)
	}
	outs[5][len(outs[5])-1] ^= 1 // tamper with one record's tag
	opened := make([][]byte, n)
	for i := range opened {
		opened[i] = make([]byte, size)
	}
	err := OpenBatch(s, outs, opened, 4)
	if err == nil {
		t.Fatal("OpenBatch accepted a tampered record")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("record 5")) {
		t.Fatalf("error does not attribute the tampered record: %v", err)
	}
}

func TestBatchLengthValidation(t *testing.T) {
	s := newTestSealer(t)
	pts := [][]byte{make([]byte, 64)}
	outs := [][]byte{make([]byte, 64)} // missing Overhead()
	if err := SealBatch(s, pts, outs, 1); err == nil {
		t.Fatal("SealBatch accepted a short output buffer")
	}
	if err := SealBatch(s, pts, make([][]byte, 2), 1); err == nil {
		t.Fatal("SealBatch accepted mismatched batch sizes")
	}
}

// TestSealAllocs is the zero-alloc regression gate for the hot path:
// neither the AES-GCM path nor the null path may allocate per record.
func TestSealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := newTestSealer(t)
	pt := make([]byte, 1024)
	fill(pt, 9)
	ct := make([]byte, len(pt)+s.Overhead())

	if avg := testing.AllocsPerRun(200, func() {
		if err := s.SealInto(ct, pt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AESSealer.SealInto allocates %.1f times per record, want 0", avg)
	}

	got := make([]byte, len(pt))
	if err := s.SealInto(ct, pt); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := s.OpenInto(got, ct); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AESSealer.OpenInto allocates %.1f times per record, want 0", avg)
	}

	var null NullSealer
	if avg := testing.AllocsPerRun(200, func() {
		if err := null.SealInto(pt, pt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("NullSealer.SealInto allocates %.1f times per record, want 0", avg)
	}
}

// TestBatchRace drives concurrent batches through one sealer instance
// with a forced multi-worker pool; under -race this covers the AEAD
// shared by every seal worker and the serial nonce handoff.
func TestBatchRace(t *testing.T) {
	s := newTestSealer(t)
	const n, size, rounds = 64, 256, 20
	pts := make([][]byte, n)
	outs := make([][]byte, n)
	opened := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, size)
		fill(pts[i], byte(i))
		outs[i] = make([]byte, size+s.Overhead())
		opened[i] = make([]byte, size)
	}
	for r := 0; r < rounds; r++ {
		if err := SealBatch(s, pts, outs, 4); err != nil {
			t.Fatalf("round %d: SealBatch: %v", r, err)
		}
		if err := OpenBatch(s, outs, opened, 4); err != nil {
			t.Fatalf("round %d: OpenBatch: %v", r, err)
		}
		for i := range opened {
			if !bytes.Equal(opened[i], pts[i]) {
				t.Fatalf("round %d: record %d corrupted", r, i)
			}
		}
	}
}

// BenchmarkSealer is the sealer microbenchmark behind the CI
// regression gate: per-record seal throughput at representative block
// sizes, reported via b.SetBytes so the MB/s column is comparable
// across runs.
func BenchmarkSealer(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		s, err := NewAESSealer(testKey(), NewRNGFromString("sealer-bench"))
		if err != nil {
			b.Fatal(err)
		}
		pt := make([]byte, size)
		fill(pt, 1)
		ct := make([]byte, size+s.Overhead())
		b.Run(fmt.Sprintf("Seal/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SealInto(ct, pt); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := s.SealInto(ct, pt); err != nil {
			b.Fatal(err)
		}
		out := make([]byte, size)
		b.Run(fmt.Sprintf("Open/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.OpenInto(out, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSealBatch measures the worker pool at a shuffle-quantum
// batch shape.
func BenchmarkSealBatch(b *testing.B) {
	const n, size = 64, 1024
	for _, workers := range []int{1, 2, 4} {
		s, err := NewAESSealer(testKey(), NewRNGFromString("sealer-bench"))
		if err != nil {
			b.Fatal(err)
		}
		pts := make([][]byte, n)
		outs := make([][]byte, n)
		for i := range pts {
			pts[i] = make([]byte, size)
			fill(pts[i], byte(i))
			outs[i] = make([]byte, size+s.Overhead())
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(n * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SealBatch(s, pts, outs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
