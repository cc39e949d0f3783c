// Package snapshot is the crash-safe persistence format for H-ORAM
// control state: the data a restart must recover that is not already
// durable in the storage-tier file. Three layers:
//
//   - a checksummed container (WriteFile/ReadFile): magic, format
//     version, payload length, payload, SHA-256 — written to a temp
//     file, fsynced and renamed into place, so a reader only ever sees
//     either the previous complete snapshot or the new complete one.
//     A torn, truncated or bit-flipped file fails the checksum and is
//     rejected, never silently loaded;
//
//   - typed payloads (Shard, Manifest, Gen): gob-encoded state blobs.
//     Shard is one H-ORAM instance's control state — permutation list,
//     position map, stash, sealed memory-tree image, scheduler and
//     miss-budget counters, and the key-derivation epoch. It never
//     contains key material: everything cryptographic is re-derived
//     from the master key the operator supplies at restart, salted
//     with the epoch so no RNG or nonce stream ever replays;
//
//   - the shuffle generation marker (WriteGen/ReadGen): a tiny record
//     {started, completed} the ORAM updates around every shuffle
//     period. Storage-tier slots are only ever written during
//     shuffles, so the marker is exactly the consistency witness a
//     restore needs: a snapshot taken at generation G is valid iff
//     the marker still reads {G, G}. completed > G means the storage
//     file advanced past the snapshot (stale checkpoint); started >
//     completed means the process died mid-shuffle and the storage
//     image itself is torn. Both are detected and refused.
//
// Callers seal the payload before writing when it contains plaintext
// (the stash does); the container itself only guarantees integrity
// against accidental corruption, not confidentiality.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Version is the container format version this package writes. It
// tracks the sealed contents too: version 2 marks the switch of every
// sealed record, and of the storage slots a snapshot describes, from
// AES-CTR + HMAC-SHA256 to AES-GCM, so a data directory written by an
// older build is refused by version before anything fails to open.
const Version = 2

// magic identifies a snapshot container file.
var magic = [8]byte{'H', 'O', 'R', 'A', 'M', 'S', 'N', 'P'}

// Errors returned by ReadFile.
var (
	// ErrFormat indicates a file too short or not a snapshot container.
	ErrFormat = errors.New("snapshot: not a snapshot container")
	// ErrVersion indicates a container from an unsupported format
	// version.
	ErrVersion = errors.New("snapshot: unsupported container version")
	// ErrChecksum indicates a truncated or corrupted container.
	ErrChecksum = errors.New("snapshot: checksum mismatch (truncated or corrupted file)")
)

const (
	headerLen   = 8 + 4 + 8 // magic + version + payload length
	checksumLen = sha256.Size
)

// WriteFile atomically replaces path with a container holding payload:
// the bytes are written to a temp file in the same directory, fsynced,
// and renamed into place, then the directory is fsynced so the rename
// itself is durable.
func WriteFile(path string, payload []byte) error {
	buf := make([]byte, 0, headerLen+len(payload)+checksumLen)
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close() //horam:errok the write error is the one to surface; the temp file is discarded
		return fmt.Errorf("snapshot: write %s: %w", tmpPath, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //horam:errok the fsync error is the one to surface; the temp file is discarded
		return fmt.Errorf("snapshot: fsync %s: %w", tmpPath, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmpPath, err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()  //horam:errok best effort: some filesystems reject directory fsync
		d.Close() //horam:errok read-only directory handle; nothing to flush
	}
	return nil
}

// ReadFile reads a container written by WriteFile and returns its
// payload. Any structural damage — wrong magic, unsupported version,
// truncation, bit flips — is an error; a payload is only returned when
// the checksum over the whole container verifies.
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerLen+checksumLen || !bytes.Equal(raw[:8], magic[:]) {
		return nil, fmt.Errorf("%w: %s", ErrFormat, path)
	}
	if v := binary.BigEndian.Uint32(raw[8:12]); v != Version {
		return nil, fmt.Errorf("%w: %s has version %d, this build reads %d", ErrVersion, path, v, Version)
	}
	plen := binary.BigEndian.Uint64(raw[12:headerLen])
	if uint64(len(raw)) != headerLen+plen+checksumLen {
		return nil, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	body := raw[:headerLen+plen]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], raw[headerLen+plen:]) {
		return nil, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	payload := make([]byte, plen)
	copy(payload, body[headerLen:])
	return payload, nil
}

// Counters mirrors the scheme-level counters of one H-ORAM instance
// (horam.Stats; duplicated here to keep the dependency arrow pointing
// from the ORAM to its persistence format, not the other way).
type Counters struct {
	Requests      int64
	Cycles        int64
	Misses        int64
	Hits          int64
	DummyIO       int64
	DummyMemory   int64
	Shuffles      int64
	PartShuffled  int64
	EvictedReal   int64
	ShuffleQuanta int64
	MaxCycleNanos int64
}

// Shard is the complete control state of one H-ORAM instance at a
// quiescent point (empty reorder buffer, no shuffle in progress).
// Everything needed to resume is here or re-derivable from the master
// key — which itself is never stored.
type Shard struct {
	// Geometry echo, validated against the rebuilt configuration on
	// restore so a snapshot can never be loaded into a mismatched
	// instance.
	Blocks     int64
	BlockSize  int
	SlotSize   int
	MemSlots   int64 // memory-tree device slots
	Partitions int64
	PartSlots  int64
	MissBudget int64

	// Key-derivation parameters. Epoch is the boot generation of the
	// instance that took the snapshot; a restore boots with Epoch+1 —
	// and immediately persists the bump — so every derived seed, and
	// therefore every RNG stream and sealer nonce sequence, differs
	// from all previous boots.
	Epoch uint64

	// Checkpoint counts SaveSnapshot calls over the instance's whole
	// life (it survives restores). A multi-shard engine saves all its
	// shards in lockstep, so equal Checkpoint values are the witness
	// that the per-shard snapshots belong to the SAME checkpoint — a
	// crash midway through a checkpoint loop leaves them unequal and
	// the restore refuses the mixed image.
	Checkpoint uint64

	// Scheduler / period state.
	MissCount  int64
	NextPart   int64
	ShuffleGen int64
	Stats      Counters

	// Permutation list (per logical address).
	PermTier    []uint8 // 0 = storage, 1 = memory
	PermSlot    []int64
	PermTouched []bool

	// Memory-tier Path ORAM control state.
	Leaves     []int64 // position map (posmap.NoLeaf = unmapped)
	RealCount  int64
	StashAddrs []int64
	StashData  [][]byte // plaintext; the enclosing payload must be sealed

	// Sealed memory-tree device image, slot by slot. The memory tier
	// is DRAM — volatile — so its ciphertext rides in the snapshot,
	// unlike the storage tier, which is durable in its own file.
	MemImage [][]byte
}

// Encode gob-encodes the shard state for WriteFile (after sealing).
func (s *Shard) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("snapshot: encode shard: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeShard reverses Shard.Encode.
func DecodeShard(b []byte) (*Shard, error) {
	var s Shard
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode shard: %w", err)
	}
	return &s, nil
}

// Manifest is the engine-level snapshot record: the cross-shard
// geometry a restore must agree on before any shard state is touched.
// Seed matters as much as the numeric dimensions: the PRF address
// partition derives from it, so a different seed silently scrambles
// every address→shard route (in insecure mode nothing else would
// catch it — the NullSealer authenticates any snapshot).
type Manifest struct {
	Blocks    int64
	BlockSize int
	Shards    int
	// ClusterShards/ShardIndex are the cluster identity echo: a
	// -shard-serve node's image records which shard of how large a
	// placement it holds (0/0 for a standalone store), so a directory
	// can never be resumed as a different shard and a gateway can
	// detect a node launched with drifted global geometry.
	ClusterShards int
	ShardIndex    int
	MemoryBytes   int64
	ShuffleRatio  float64
	// MonolithicShuffle is echoed so an image persisted under one
	// shuffle mode is not silently resumed under the other: the modes
	// are state-compatible at period boundaries, but the operator's
	// latency expectations (and any recorded baselines) are not.
	MonolithicShuffle bool
	// ConstantTime is echoed so an image persisted under one
	// controller mode is not silently resumed under the other: the
	// modes are state-compatible (identical sealed bytes), but the
	// operator's timing-hardening expectations are not.
	ConstantTime bool
	Insecure     bool
	Seed         string
	Epoch        uint64

	// KV is the oblivious key–value subsystem's directory state when
	// the image belongs to a KV store (nil for raw block images). It
	// rides in the manifest — the file written last and read first — so
	// a restore sees KV geometry and occupancy from the same checkpoint
	// cut as the shard snapshots, and persistence adds no KV-specific
	// volume channel: the table's contents live in the ordinary block
	// image, this record only carries geometry and counters.
	KV *KVState
}

// KVState is the control state of an okv.Store: the static table
// geometry (validated on resume — a mismatched layout would silently
// scramble every key's bucket and extent addresses) plus the live-key
// count and operation counters at the checkpoint. It never contains
// keys, values, or key material.
type KVState struct {
	Buckets        int64
	SlotsPerBucket int
	MaxValueBytes  int
	MaxKeyBytes    int
	Count          int64
	Gets           int64
	Sets           int64
	Dels           int64
	Misses         int64
}

// Encode gob-encodes the manifest for WriteFile (after sealing).
func (m *Manifest) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("snapshot: encode manifest: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeManifest reverses Manifest.Encode.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
		return nil, fmt.Errorf("snapshot: decode manifest: %w", err)
	}
	return &m, nil
}

// Gen is the shuffle generation marker (see the package doc).
type Gen struct {
	Started   int64 // shuffle generations begun
	Completed int64 // shuffle generations whose storage writes are durable
}

// WriteGen atomically replaces the generation marker at path.
func WriteGen(path string, g Gen) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&g); err != nil {
		return fmt.Errorf("snapshot: encode gen: %w", err)
	}
	return WriteFile(path, buf.Bytes())
}

// ReadGen reads a marker written by WriteGen.
func ReadGen(path string) (Gen, error) {
	payload, err := ReadFile(path)
	if err != nil {
		return Gen{}, err
	}
	var g Gen
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&g); err != nil {
		return Gen{}, fmt.Errorf("snapshot: decode gen: %w", err)
	}
	return g, nil
}
