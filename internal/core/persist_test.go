package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/snapshot"
)

func durableOpts(dir string) Options {
	return Options{
		Blocks:      256,
		BlockSize:   32,
		MemoryBytes: 2 << 10, // 64-slot memory tier: small budget, frequent shuffles
		Key:         testKey(),
		DataDir:     dir,
	}
}

func payloadFor(addr int64, generation int, size int) []byte {
	p := bytes.Repeat([]byte{0}, size)
	copy(p, fmt.Sprintf("blk-%d-gen-%d", addr, generation))
	return p
}

// TestSnapshotRoundTrip is the core durability contract: write a
// workload, snapshot, reopen from disk, and every block — whether it
// was resident in the durable storage tier or in the volatile memory
// tier at snapshot time — reads back with its last written contents.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	model := make(map[int64][]byte)
	rng := blockcipher.NewRNGFromString("core-persist")
	var reqs []*Request
	for i := 0; i < 300; i++ {
		addr := rng.Int63n(opts.Blocks)
		if rng.Intn(3) == 0 {
			data := payloadFor(addr, i, opts.BlockSize)
			model[addr] = data
			reqs = append(reqs, &Request{Op: OpWrite, Addr: addr, Data: data})
		} else {
			reqs = append(reqs, &Request{Op: OpRead, Addr: addr})
		}
	}
	if err := c.Batch(reqs); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if c.Stats().Shuffles == 0 {
		t.Fatal("workload never crossed a shuffle period; grow it so the test covers post-shuffle restores")
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	preStats := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	if r.Epoch() != 1 {
		t.Fatalf("Epoch after first restore = %d, want 1", r.Epoch())
	}
	if got := r.Stats(); got.Stats != preStats.Stats {
		t.Fatalf("restored counters %+v != saved %+v", got.Stats, preStats.Stats)
	}
	for addr := int64(0); addr < opts.Blocks; addr++ {
		want, ok := model[addr]
		if !ok {
			want = make([]byte, opts.BlockSize)
		}
		got, err := r.Read(addr)
		if err != nil {
			t.Fatalf("Read(%d) after restore: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d after restore = %q, want %q", addr, got, want)
		}
	}
	// The restored instance keeps serving writes (and can snapshot
	// again at a later epoch).
	data := payloadFor(7, 999, opts.BlockSize)
	if err := r.Write(7, data); err != nil {
		t.Fatalf("Write after restore: %v", err)
	}
	if err := r.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot after restore: %v", err)
	}
}

// TestRestoreChain restores twice in a row, checking the epoch keeps
// climbing and the data stays intact.
func TestRestoreChain(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	data := payloadFor(3, 0, opts.BlockSize)
	if err := c.Write(3, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	for epoch := uint64(1); epoch <= 2; epoch++ {
		r, err := Restore(opts)
		if err != nil {
			t.Fatalf("Restore #%d: %v", epoch, err)
		}
		if r.Epoch() != epoch {
			t.Fatalf("Epoch = %d, want %d", r.Epoch(), epoch)
		}
		got, err := r.Read(3)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block 3 = %q, want %q", got, data)
		}
		if err := r.SaveSnapshot(); err != nil {
			t.Fatalf("SaveSnapshot: %v", err)
		}
		r.Close()
	}
}

// TestRestorePersistsEpochImmediately: a boot that crashes before its
// first explicit checkpoint must still never be followed by a boot at
// the same epoch — the epoch bump is made durable inside Restore
// itself, or the crashed boot's nonce/RNG streams would replay.
func TestRestorePersistsEpochImmediately(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	r1, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r1.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1", r1.Epoch())
	}
	// Simulate a crash: no SaveSnapshot, no Close.

	r2, err := Restore(opts)
	if err != nil {
		t.Fatalf("second Restore: %v", err)
	}
	defer r2.Close()
	if r2.Epoch() != 2 {
		t.Fatalf("Epoch after crash-restore = %d, want 2 (epoch bump was not persisted)", r2.Epoch())
	}
	r1.Close()
}

// TestStaleSnapshotRefused runs traffic past another shuffle after the
// last snapshot: the storage file advances beyond the checkpoint and
// the restore must refuse rather than resume inconsistent state.
func TestStaleSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Drive traffic until at least one more shuffle completes.
	rng := blockcipher.NewRNGFromString("stale")
	for c.Stats().Shuffles == 0 {
		var reqs []*Request
		for i := 0; i < 64; i++ {
			reqs = append(reqs, &Request{Op: OpRead, Addr: rng.Int63n(opts.Blocks)})
		}
		if err := c.Batch(reqs); err != nil {
			t.Fatalf("Batch: %v", err)
		}
	}
	c.Close()

	_, err = Restore(opts)
	if err == nil {
		t.Fatal("Restore accepted a snapshot older than the storage image")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("err = %v, want a stale-snapshot refusal", err)
	}
}

// TestTornSnapshotRefused truncates and bit-flips state.snap: the
// checksum (and, for flips past it, the authentication tag) must
// reject the file.
func TestTornSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.Write(5, payloadFor(5, 0, opts.BlockSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	statePath := filepath.Join(dir, StateFileName)
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// Truncation.
	if err := os.WriteFile(statePath, raw[:len(raw)/2], 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Restore(opts); err == nil {
		t.Fatal("Restore accepted a truncated snapshot")
	}

	// Bit flip in the sealed payload.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(statePath, flipped, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Restore(opts); err == nil {
		t.Fatal("Restore accepted a bit-flipped snapshot")
	}

	// Wrong key: the container verifies but the seal must not.
	if err := os.WriteFile(statePath, raw, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	bad := opts
	bad.Key = bytes.Repeat([]byte{0xee}, 32)
	if _, err := Restore(bad); err == nil {
		t.Fatal("Restore accepted the snapshot under a different master key")
	}

	// And the pristine bytes still restore.
	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore of pristine snapshot: %v", err)
	}
	defer r.Close()
	got, err := r.Read(5)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payloadFor(5, 0, opts.BlockSize)) {
		t.Fatal("restored block 5 has wrong contents")
	}
}

// TestTornShuffleRefused forges a mid-shuffle generation marker: the
// restore must report a torn storage image.
func TestTornShuffleRefused(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()
	if err := snapshot.WriteGen(filepath.Join(dir, GenFileName), snapshot.Gen{Started: 1, Completed: 0}); err != nil {
		t.Fatalf("WriteGen: %v", err)
	}
	_, err = Restore(opts)
	if err == nil {
		t.Fatal("Restore accepted a torn (mid-shuffle) storage image")
	}
	if !strings.Contains(err.Error(), "torn") {
		t.Fatalf("err = %v, want a torn-image refusal", err)
	}
}

// TestFreshOpenClearsStaleSnapshot ensures Open never leaves a
// restorable snapshot pointing at a reinitialised storage file.
func TestFreshOpenClearsStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	c2, err := Open(opts) // fresh layout over the same dir
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	c2.Close()
	if _, err := os.Stat(filepath.Join(dir, StateFileName)); !os.IsNotExist(err) {
		t.Fatal("fresh Open left the previous state.snap behind")
	}
	if _, err := Restore(opts); err == nil {
		t.Fatal("Restore succeeded against a reinitialised layout with no snapshot")
	}
}

// firstSlotNonce returns the nonce of the first sealed record in the
// storage file.
func firstSlotNonce(t *testing.T, dir string) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, StorageFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nonce := make([]byte, 12)
	if _, err := f.ReadAt(nonce, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(nonce, make([]byte, 12)) {
		t.Fatal("storage slot 0 was never sealed")
	}
	return nonce
}

// TestReopenDoesNotReplayNonces re-initialises one data directory
// under the same key: every boot must take a fresh epoch — from the
// boot record when the previous boot never checkpointed, from the
// snapshot otherwise — so its sealed records never reuse a nonce of an
// earlier boot's.
func TestReopenDoesNotReplayNonces(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	seen := map[string]uint64{}
	boot := func(want uint64) *Client {
		t.Helper()
		c, err := Open(opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if c.Epoch() != want {
			t.Fatalf("Epoch = %d, want %d", c.Epoch(), want)
		}
		nonce := string(firstSlotNonce(t, dir))
		if prev, ok := seen[nonce]; ok {
			t.Fatalf("boot at epoch %d sealed slot 0 under the nonce of epoch %d", want, prev)
		}
		seen[nonce] = want
		return c
	}

	c := boot(0)
	if err := c.Write(3, payloadFor(3, 0, opts.BlockSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	c.Close() // no checkpoint: only boot.epoch remembers this boot

	c = boot(1)
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()
	// A lost boot record still leaves the snapshot's epoch.
	if err := os.Remove(filepath.Join(dir, EpochFileName)); err != nil {
		t.Fatal(err)
	}
	boot(2).Close()

	// A damaged boot record is refused, not ignored.
	if err := os.WriteFile(filepath.Join(dir, EpochFileName), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("Open ignored an unreadable boot epoch record")
	}

	fresh, err := Open(durableOpts(t.TempDir()))
	if err != nil {
		t.Fatalf("Open fresh dir: %v", err)
	}
	defer fresh.Close()
	if fresh.Epoch() != 0 {
		t.Fatalf("fresh dir booted at epoch %d, want 0", fresh.Epoch())
	}
}

// downgradeContainer rewrites a snapshot container as format version
// 1, the version written by builds that sealed with AES-CTR +
// HMAC-SHA256: same layout, older version field, checksum recomputed.
func downgradeContainer(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-sha256.Size]
	binary.BigEndian.PutUint32(body[8:12], 1)
	sum := sha256.Sum256(body)
	if err := os.WriteFile(path, append(body, sum[:]...), 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesOldVersion: a data directory from the AES-CTR +
// HMAC build must be refused by its container version, naming the
// file, rather than failing authentication or a geometry check.
func TestRestoreRefusesOldVersion(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.Write(5, payloadFor(5, 0, opts.BlockSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()
	for _, name := range []string{StateFileName, GenFileName} {
		downgradeContainer(t, filepath.Join(dir, name))
	}
	if err := os.Remove(filepath.Join(dir, EpochFileName)); err != nil { // older builds wrote none
		t.Fatal(err)
	}

	_, err = Restore(opts)
	if !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("Restore of a version-1 directory: err = %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), StateFileName) {
		t.Fatalf("version error does not name the file: %v", err)
	}
}
