// Zero-copy and batch sealing. The steady-state ORAM block path seals
// and opens one fixed-size record per device slot, and the historical
// Seal/Open contract allocated the output on every call — the dominant
// allocation churn of a cycle. InplaceSealer seals/opens into
// caller-provided buffers instead, so the per-record cost is the
// AES-GCM pass alone.
//
// SealBatch/OpenBatch run a whole path or shuffle quantum serially on
// the calling goroutine, in index order, so the nonce stream advances
// exactly as sequential Seal calls would. Parallelism lives one level
// up: each engine shard seals its own cycles on its own goroutine.
// The package-level helpers fall back to the plain Sealer contract for
// implementations (e.g. fault-injecting test sealers) that predate
// InplaceSealer.
package blockcipher

import (
	"encoding/binary"
	"fmt"
)

// InplaceSealer is the optional zero-copy contract: sealing and
// opening into caller-provided buffers instead of allocating.
type InplaceSealer interface {
	// SealInto seals plaintext into dst, which must be exactly
	// len(plaintext)+Overhead() bytes. The sealed bytes are identical
	// to what Seal would have returned at the same point in the nonce
	// stream.
	SealInto(dst, plaintext []byte) error
	// OpenInto verifies sealed and decrypts it into dst, which must be
	// exactly len(sealed)-Overhead() bytes.
	OpenInto(dst, sealed []byte) error
}

// SealInto seals via s's in-place path when it has one, and through
// Seal plus a copy otherwise. dst must be exactly
// len(plaintext)+s.Overhead() bytes.
func SealInto(s Sealer, dst, plaintext []byte) error {
	if is, ok := s.(InplaceSealer); ok {
		return is.SealInto(dst, plaintext)
	}
	sealed, err := s.Seal(plaintext)
	if err != nil {
		return err
	}
	if len(sealed) != len(dst) {
		return fmt.Errorf("blockcipher: sealed %d bytes into a %d-byte buffer", len(sealed), len(dst))
	}
	copy(dst, sealed)
	return nil
}

// OpenInto opens via s's in-place path when it has one, and through
// Open plus a copy otherwise. dst must be exactly
// len(sealed)-s.Overhead() bytes.
func OpenInto(s Sealer, dst, sealed []byte) error {
	if is, ok := s.(InplaceSealer); ok {
		return is.OpenInto(dst, sealed)
	}
	pt, err := s.Open(sealed)
	if err != nil {
		return err
	}
	if len(pt) != len(dst) {
		return fmt.Errorf("blockcipher: opened %d bytes into a %d-byte buffer", len(pt), len(dst))
	}
	copy(dst, pt)
	return nil
}

// SealBatch seals plaintexts[i] into outs[i] (each exactly
// len(plaintexts[i])+s.Overhead() bytes) in index order, and counts
// the plaintext bytes into the process-wide Throughput totals.
func SealBatch(s Sealer, plaintexts, outs [][]byte) error {
	countBytes(&sealedBytes, plaintexts)
	return batch(plaintexts, outs, func(dst, src []byte) error { return SealInto(s, dst, src) })
}

// OpenBatch verifies and decrypts sealed[i] into outs[i] (each exactly
// len(sealed[i])-s.Overhead() bytes) in index order, and counts the
// sealed bytes into the process-wide Throughput totals.
func OpenBatch(s Sealer, sealed, outs [][]byte) error {
	countBytes(&openedBytes, sealed)
	return batch(sealed, outs, func(dst, src []byte) error { return OpenInto(s, dst, src) })
}

// batch runs f(outs[i], ins[i]) for every i in order, stopping at the
// first error and naming its record.
func batch(ins, outs [][]byte, f func(dst, src []byte) error) error {
	if len(ins) != len(outs) {
		return fmt.Errorf("blockcipher: %d inputs, %d outputs", len(ins), len(outs))
	}
	for i := range ins {
		if err := f(outs[i], ins[i]); err != nil {
			return fmt.Errorf("blockcipher: record %d: %w", i, err)
		}
	}
	return nil
}

// nextNonce writes the next nonce of the sealer's prefix ‖ counter
// sequence into dst[:nonceSize].
func (s *AESSealer) nextNonce(dst []byte) {
	s.counter++
	binary.BigEndian.PutUint32(dst[:4], s.prefix)
	binary.BigEndian.PutUint64(dst[4:nonceSize], s.counter)
}

// SealInto implements InplaceSealer. The tag lands in place after the
// ciphertext, so nothing allocates.
func (s *AESSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != nonceSize+len(plaintext)+tagSize {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), nonceSize+len(plaintext)+tagSize)
	}
	s.nextNonce(dst)
	s.aead.Seal(dst[:nonceSize], dst[:nonceSize], plaintext, nil)
	return nil
}

// OpenInto implements InplaceSealer.
func (s *AESSealer) OpenInto(dst, sealed []byte) error {
	if len(sealed) < nonceSize+tagSize {
		return ErrCiphertext
	}
	if len(dst) != len(sealed)-nonceSize-tagSize {
		return fmt.Errorf("blockcipher: open buffer %d bytes, want %d", len(dst), len(sealed)-nonceSize-tagSize)
	}
	if _, err := s.aead.Open(dst[:0], sealed[:nonceSize], sealed[nonceSize:], nil); err != nil {
		return ErrAuth
	}
	return nil
}

// SealBatch seals plaintexts[i] into outs[i] serially. Unlike the
// package-level SealBatch it does not feed the Throughput totals.
//
// Deprecated: workers is ignored; sealing is serial. Use the
// package-level SealBatch.
func (s *AESSealer) SealBatch(plaintexts, outs [][]byte, workers int) error {
	return batch(plaintexts, outs, s.SealInto)
}

// OpenBatch opens sealed[i] into outs[i] serially. Unlike the
// package-level OpenBatch it does not feed the Throughput totals.
//
// Deprecated: workers is ignored; sealing is serial. Use the
// package-level OpenBatch.
func (s *AESSealer) OpenBatch(sealed, outs [][]byte, workers int) error {
	return batch(sealed, outs, s.OpenInto)
}

// SealInto implements InplaceSealer by copying (no overhead).
func (NullSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != len(plaintext) {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), len(plaintext))
	}
	copy(dst, plaintext)
	return nil
}

// OpenInto implements InplaceSealer by copying.
func (NullSealer) OpenInto(dst, sealed []byte) error {
	if len(dst) != len(sealed) {
		return fmt.Errorf("blockcipher: open buffer %d bytes, want %d", len(dst), len(sealed))
	}
	copy(dst, sealed)
	return nil
}

// Compile-time capability conformance.
var (
	_ InplaceSealer = (*AESSealer)(nil)
	_ InplaceSealer = NullSealer{}
)
