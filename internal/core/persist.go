// Durable storage and crash-safe snapshot/restore for a Client.
//
// With Options.DataDir set, the layout on disk is:
//
//	DataDir/storage.dat   sealed storage-tier slots (device.File)
//	DataDir/storage.gen   shuffle generation marker {started, completed}
//	DataDir/state.snap    sealed control-state snapshot (SaveSnapshot)
//	DataDir/boot.epoch    highest boot epoch ever used here
//
// The storage file is the durable ground truth for storage-resident
// blocks; state.snap recovers everything else — the permutation list,
// the memory tree's position map, stash and sealed device image, and
// the scheduler/miss-budget counters. The master key is NEVER written:
// the sealer, the snapshot sealer and every RNG stream are re-derived
// from the key the operator supplies at restart.
//
// Epochs. Every boot over a data directory — Open or Restore — takes
// a key-derivation epoch one past any the directory has recorded (in
// boot.epoch or a readable snapshot), records it durably before the
// first seal, and salts every derived nonce/RNG stream with it, so a
// rebooted or re-initialised instance can never replay the nonce
// sequence or randomness of a previous boot. Under AES-GCM a replayed
// nonce would leak the authentication key. An in-memory client (no
// DataDir) always boots at epoch 0, so it needs a fresh key per boot.
//
// Consistency. Storage slots are only written during shuffle periods;
// horam brackets each period's writes with the storage.gen marker
// ({G, G-1} before the first write, fsync then {G, G} after the last).
// A snapshot records the generation it was taken at, so Restore can
// decide exactly which images are safe: marker {G, G} equal to the
// snapshot's G resumes cleanly; completed > G means the storage file
// advanced past the checkpoint (writes since the snapshot are lost and
// the control state no longer matches — refused); started > completed
// means the process died inside a shuffle and the storage image itself
// is torn (refused). Refusal is always an explicit error, never a
// silent load of inconsistent state.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/horam"
	"repro/internal/simclock"
	"repro/internal/snapshot"
)

// File names inside Options.DataDir.
const (
	StorageFileName   = "storage.dat"
	GenFileName       = "storage.gen"
	StateFileName     = "state.snap"
	StatePrevFileName = "state.snap.prev"
	EpochFileName     = "boot.epoch"
)

func (c *Client) storagePath() string   { return filepath.Join(c.dataDir, StorageFileName) }
func (c *Client) genPath() string       { return filepath.Join(c.dataDir, GenFileName) }
func (c *Client) statePath() string     { return filepath.Join(c.dataDir, StateFileName) }
func (c *Client) statePrevPath() string { return filepath.Join(c.dataDir, StatePrevFileName) }
func (c *Client) epochPath() string     { return filepath.Join(c.dataDir, EpochFileName) }

// recordEpoch makes the client's boot epoch durable. Open and Restore
// call it before anything is sealed, so a crash at any later point
// still leaves the next boot a higher epoch to start from.
func (c *Client) recordEpoch() error {
	if c.dataDir == "" {
		return nil
	}
	return snapshot.WriteFile(c.epochPath(), binary.BigEndian.AppendUint64(nil, c.epoch))
}

// recordedEpoch reads the directory's boot.epoch; ok is false when
// there is none. A record that exists but does not read back is an
// error: it is the only witness of boots that never checkpointed.
func (c *Client) recordedEpoch() (epoch uint64, ok bool, err error) {
	raw, err := snapshot.ReadFile(c.epochPath())
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err == nil && len(raw) != 8 {
		err = fmt.Errorf("%s holds %d bytes, want 8", EpochFileName, len(raw))
	}
	if err != nil {
		return 0, false, fmt.Errorf("core: boot epoch record unreadable (remove the data directory to start over): %w", err)
	}
	return binary.BigEndian.Uint64(raw), true, nil
}

// NextEpoch reports the epoch a fresh Open over opts.DataDir boots at:
// one past the highest epoch in the directory's boot.epoch or in a
// snapshot that opens under opts.Key, and 0 when there is none (always
// 0 without a DataDir).
func NextEpoch(opts Options) (uint64, error) {
	opts, err := resolve(opts)
	if err != nil || opts.DataDir == "" {
		return 0, err
	}
	probe, _, err := prepare(opts, 0)
	if err != nil {
		return 0, err
	}
	next, err := probe.nextAfterRecord(0)
	if err != nil {
		return 0, err
	}
	for _, p := range []string{probe.statePath(), probe.statePrevPath()} {
		// A snapshot that does not open was sealed under another key
		// or format, so its nonces cannot collide with this key's.
		if shard, err := loadShard(probe.snapSealer, p); err == nil {
			next = max(next, shard.Epoch+1)
		}
	}
	return next, nil
}

// nextAfterRecord returns max(epoch, recorded epoch + 1).
func (c *Client) nextAfterRecord(epoch uint64) (uint64, error) {
	rec, ok, err := c.recordedEpoch()
	if err != nil {
		return 0, err
	}
	if ok {
		epoch = max(epoch, rec+1)
	}
	return epoch, nil
}

// wireDurability points cfg's storage tier at the backing file and
// installs the shuffle-generation marker hook.
func (c *Client) wireDurability(cfg *horam.Config, fsyncEvery int) error {
	if err := os.MkdirAll(c.dataDir, 0o700); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	cfg.Storage = func(p device.Profile, slotSize int, slots int64, clk *simclock.Clock) (device.Backend, error) {
		return device.NewFile(device.FileConfig{
			Path:       c.storagePath(),
			Profile:    p,
			SlotSize:   slotSize,
			Slots:      slots,
			Clock:      clk,
			FsyncEvery: fsyncEvery,
		})
	}
	cfg.ShuffleMark = func(gen int64, done bool) error {
		g := snapshot.Gen{Started: gen, Completed: gen}
		if !done {
			g.Completed = gen - 1
		}
		return snapshot.WriteGen(c.genPath(), g)
	}
	return nil
}

// clearStaleState removes leftover snapshots before a fresh Open
// reinitialises the storage file. A control snapshot from a previous
// layout must never be restorable over a re-permuted storage image.
func (c *Client) clearStaleState() error {
	if c.dataDir == "" {
		return nil
	}
	for _, p := range []string{c.statePath(), c.statePrevPath()} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// markFreshLayout makes a fresh Open's initial storage layout durable
// and writes the generation-0 marker.
func (c *Client) markFreshLayout() error {
	if c.dataDir == "" {
		return nil
	}
	if err := c.oram.SyncStorage(); err != nil {
		return err
	}
	return snapshot.WriteGen(c.genPath(), snapshot.Gen{})
}

// Epoch returns the client's key-derivation boot generation: one past
// every epoch its data directory has seen (0 for a fresh directory or
// none).
func (c *Client) Epoch() uint64 { return c.epoch }

// Checkpoint returns the number of SaveSnapshot calls over the
// instance's whole life (the counter survives restores). The engine
// uses it to verify that all shards restored from the SAME checkpoint.
func (c *Client) Checkpoint() uint64 { return c.checkpoint }

// DataDir returns the durable directory, or "" for a pure simulation.
func (c *Client) DataDir() string { return c.dataDir }

// SaveSnapshot captures the control state at a quiescent point, seals
// it, and atomically replaces DataDir/state.snap — first rotating the
// previous snapshot to state.snap.prev, so one older checkpoint stays
// recoverable (the engine rolls individual shards back to it when a
// crash lands midway through a multi-shard checkpoint). The client
// must have no queued requests; callers running traffic quiesce
// first (internal/engine blocks new batches and levels shards before
// asking every shard to save).
func (c *Client) SaveSnapshot() error {
	return c.SaveSnapshotAt(c.Checkpoint() + 1)
}

// SaveSnapshotAt saves a checkpoint with an explicit lifetime number,
// which must exceed the client's current one. The engine drives all
// its shards with ONE number (max across shards + 1) so that a
// transiently failed per-shard save — which leaves that shard's
// counter behind — re-aligns at the very next checkpoint instead of
// skewing the lockstep counters forever.
func (c *Client) SaveSnapshotAt(checkpoint uint64) error {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	if checkpoint <= c.checkpoint {
		return fmt.Errorf("core: SaveSnapshotAt(%d): checkpoint numbers must grow (currently at %d)", checkpoint, c.checkpoint)
	}
	return c.saveLocked(checkpoint)
}

// saveLocked writes the snapshot under oramMu at the given lifetime
// checkpoint number. The epoch-persisting re-save a Restore performs
// passes the UNCHANGED current number (same Checkpoint, new Epoch): it
// must not advance the lockstep counter the engine compares across
// shards.
func (c *Client) saveLocked(ckpt uint64) error {
	if c.dataDir == "" {
		return errors.New("core: SaveSnapshot requires Options.DataDir")
	}
	shard, err := c.oram.CaptureSnapshot()
	if err != nil {
		return err
	}
	shard.Epoch = c.epoch
	shard.Checkpoint = ckpt
	// The snapshot's generation is only meaningful once the storage
	// writes it refers to are durable.
	if err := c.oram.SyncStorage(); err != nil {
		return err
	}
	payload, err := shard.Encode()
	if err != nil {
		return err
	}
	sealed, err := c.snapSealer.Seal(payload)
	if err != nil {
		return err
	}
	// Rotate, then write: if the write never lands, the previous
	// checkpoint is still at state.snap.prev and Restore falls back.
	if err := os.Rename(c.statePath(), c.statePrevPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: %w", err)
	}
	if err := snapshot.WriteFile(c.statePath(), sealed); err != nil {
		return err
	}
	c.checkpoint = ckpt
	return nil
}

// loadShard reads and authenticates one snapshot file.
func loadShard(sealer blockcipher.Sealer, path string) (*snapshot.Shard, error) {
	sealed, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := sealer.Open(sealed)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %s does not authenticate (wrong key or tampered file): %w", filepath.Base(path), err)
	}
	return snapshot.DecodeShard(payload)
}

// Peek reads the durable directory's newest snapshot (falling back to
// the rotated previous one if the newest write never landed) and
// reports its checkpoint, and the highest epoch the directory has
// booted at (the snapshot's or boot.epoch's), without building a
// client. The engine uses it to agree on one target checkpoint and
// one fresh boot epoch across all shards before restoring any of
// them.
func Peek(opts Options) (epoch, checkpoint uint64, err error) {
	opts, err = resolve(opts)
	if err != nil {
		return 0, 0, err
	}
	if opts.DataDir == "" {
		return 0, 0, errors.New("core: Peek requires Options.DataDir")
	}
	probe, _, err := prepare(opts, 0)
	if err != nil {
		return 0, 0, err
	}
	shard, err := loadShard(probe.snapSealer, probe.statePath())
	if os.IsNotExist(err) {
		shard, err = loadShard(probe.snapSealer, probe.statePrevPath())
	}
	if err != nil {
		return 0, 0, err
	}
	next, err := probe.nextAfterRecord(shard.Epoch + 1)
	if err != nil {
		return 0, 0, err
	}
	return next - 1, shard.Checkpoint, nil
}

// Restore resumes a client from the image a previous SaveSnapshot left
// in opts.DataDir, at the newest recoverable checkpoint, booting one
// past the highest epoch the directory has seen. The options must carry the same geometry and
// key material as the instance that saved; the snapshot checksum,
// sealing tag, geometry echo and shuffle-generation marker are all
// verified before any state is adopted.
func Restore(opts Options) (*Client, error) {
	return restoreAt(opts, 0, false)
}

// RestoreCheckpoint resumes a client from the snapshot with the exact
// lifetime checkpoint number — the current one or the rotated previous
// one — booting at the given epoch. The engine uses it to roll every
// shard onto one consistent checkpoint cut with one shared fresh
// epoch, even when a crash interrupted the checkpoint loop.
func RestoreCheckpoint(opts Options, checkpoint, epoch uint64) (*Client, error) {
	return restoreAt(opts, epoch, true, checkpoint)
}

// restoreAt implements Restore and RestoreCheckpoint. With pin set,
// wantCkpt[0] selects the exact checkpoint and epoch is used verbatim;
// otherwise the newest available snapshot wins and the boot epoch is
// one past both its stored epoch and boot.epoch.
func restoreAt(opts Options, epoch uint64, pin bool, wantCkpt ...uint64) (*Client, error) {
	opts, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if opts.DataDir == "" {
		return nil, errors.New("core: Restore requires Options.DataDir")
	}

	// Epoch 0 here only builds the (epoch-independent) snapshot-opening
	// key; the real client is prepared again below at the right epoch.
	probe, _, err := prepare(opts, 0)
	if err != nil {
		return nil, err
	}
	shard, err := loadShard(probe.snapSealer, probe.statePath())
	if os.IsNotExist(err) {
		// A crash between the rotate and the write of the last save:
		// the previous checkpoint is the newest complete one.
		shard, err = loadShard(probe.snapSealer, probe.statePrevPath())
	}
	if err != nil {
		return nil, err
	}
	if pin && shard.Checkpoint != wantCkpt[0] {
		prev, perr := loadShard(probe.snapSealer, probe.statePrevPath())
		if perr != nil {
			return nil, fmt.Errorf("core: no snapshot at checkpoint %d: current is %d and the previous copy is unreadable: %w", wantCkpt[0], shard.Checkpoint, perr)
		}
		if prev.Checkpoint != wantCkpt[0] {
			return nil, fmt.Errorf("core: no snapshot at checkpoint %d: have %d and %d", wantCkpt[0], shard.Checkpoint, prev.Checkpoint)
		}
		shard = prev
	}
	if !pin {
		if epoch, err = probe.nextAfterRecord(shard.Epoch + 1); err != nil {
			return nil, err
		}
	}

	gen, err := snapshot.ReadGen(filepath.Join(opts.DataDir, GenFileName))
	if err != nil {
		return nil, fmt.Errorf("core: reading shuffle generation marker: %w", err)
	}
	if gen.Started != gen.Completed {
		return nil, fmt.Errorf("core: storage image is torn: crashed during shuffle generation %d (completed %d); the image cannot be resumed", gen.Started, gen.Completed)
	}
	if gen.Completed != shard.ShuffleGen {
		return nil, fmt.Errorf("core: snapshot is stale: taken at shuffle generation %d but storage is at %d; writes since the last checkpoint are unrecoverable", shard.ShuffleGen, gen.Completed)
	}

	c, cfg, err := prepare(opts, epoch)
	if err != nil {
		return nil, err
	}
	if err := c.recordEpoch(); err != nil {
		return nil, err
	}
	c.checkpoint = shard.Checkpoint
	c.oram, err = horam.Restore(cfg, shard)
	if err != nil {
		return nil, err
	}
	// Re-save the restored image at the new epoch (without advancing
	// the checkpoint counter), so state.snap is the image this boot
	// runs from: a shard rolled back to its previous copy does not
	// leave the newer, abandoned checkpoint current.
	if err := c.saveLocked(c.checkpoint); err != nil {
		c.oram.CloseStorage()
		return nil, fmt.Errorf("core: persisting restored epoch: %w", err)
	}
	return c, nil
}

// Close releases OS resources held by the durable backend (no-op for a
// pure simulation). It does not snapshot; callers that want the latest
// control state persisted call SaveSnapshot first.
func (c *Client) Close() error {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.oram.CloseStorage()
}
