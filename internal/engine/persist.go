// Engine-level snapshot/restore. The durable layout under
// Options.DataDir is:
//
//	DataDir/engine.snap      sealed manifest (geometry + epoch)
//	DataDir/shard-<i>/       one core.Client durable directory per
//	                         shard (storage.dat, storage.gen,
//	                         state.snap — see core/persist.go)
//
// SaveSnapshot quiesces the engine (blocking new batches and waiting
// out in-flight ones), levels shard cycle counts — so the persisted
// image sits at cross-shard-equal cycle counts and a restart leaks
// nothing a quiescent engine does not already reveal — then saves
// every shard and finally the manifest. The manifest is written last
// and read first: geometry is validated against the caller's options
// before any shard state is touched.
package engine

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/blockcipher"
	"repro/internal/snapshot"
)

// ManifestFileName is the engine manifest inside Options.DataDir.
const ManifestFileName = "engine.snap"

func shardDir(dataDir string, s int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", s))
}

func manifestPath(dataDir string) string {
	return filepath.Join(dataDir, ManifestFileName)
}

// manifestSealer derives the sealer for the manifest container. The
// key is epoch-independent (a manifest from any boot must open); the
// nonce stream is epoch-salted so it never replays across boots.
func manifestSealer(opts Options, prf *blockcipher.PRF, epoch uint64) (blockcipher.Sealer, error) {
	if opts.Insecure {
		return blockcipher.NullSealer{}, nil
	}
	rng := blockcipher.NewRNG(prf.Derive(fmt.Sprintf("engine-manifest-nonce-epoch-%d", epoch), 32))
	return blockcipher.NewAESSealer(prf.Derive("engine-manifest-key", 32), rng)
}

// wireManifest records the geometry echo and builds the manifest
// sealer once the shards are up (their epochs are known then). The
// shards' lifetime checkpoint counters must agree: the engine saves
// all shards in lockstep, so a divergence means the directory holds
// snapshots from different checkpoints (e.g. a crash midway through a
// SaveSnapshot loop) and resuming the mix would break the
// leveled-cycle-count invariant. With remote backends the same
// agreement check runs over the wire (PEEK), so a cluster assembled
// from nodes restored at different checkpoint cuts is refused exactly
// like an in-process directory would be. Epochs need not agree: each
// node boots past its own directory's history, and the engine reports
// the highest (in-process shards always share one).
func (e *Engine) wireManifest(opts Options, prf *blockcipher.PRF) error {
	var epoch uint64
	_, ckpt, err := e.shards[0].backend.Peek()
	if err != nil {
		return fmt.Errorf("engine: shard 0: %w", err)
	}
	for _, sh := range e.shards {
		got, gotCkpt, err := sh.backend.Peek()
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", sh.id, err)
		}
		epoch = max(epoch, got)
		if gotCkpt != ckpt {
			return fmt.Errorf("engine: shard %d restored at checkpoint %d, shard 0 at %d; the directory mixes snapshots from different checkpoints (crash during SaveSnapshot?)", sh.id, gotCkpt, ckpt)
		}
	}
	// The geometry echo is the shared config.Common one — the same
	// field set CheckManifest validates at restore, so echo and check
	// cannot drift apart. It is recorded even without a DataDir: a
	// -shard-serve node answers the PEEK control verb from it, and
	// Epoch() reads it.
	e.manifest = opts.Manifest(epoch)
	if opts.DataDir == "" {
		return nil
	}
	sealer, err := manifestSealer(opts, prf, epoch)
	if err != nil {
		return err
	}
	e.manSealer = sealer
	return nil
}

// ManifestEcho returns the engine's geometry echo — the same manifest
// SaveSnapshot persists, with the live epoch. A -shard-serve node
// renders it on the PEEK shard-control verb so a gateway can refuse a
// node running with drifted geometry, options or seed before serving
// any traffic through it.
func (e *Engine) ManifestEcho() snapshot.Manifest { return e.manifest }

// Epoch returns the engine's key-derivation boot generation: one past
// every epoch its data directory has seen (0 for a fresh directory or
// none).
func (e *Engine) Epoch() uint64 { return e.manifest.Epoch }

// Peek reports the live epoch and lifetime checkpoint counter. Shard
// 0 speaks for the engine: assembly refuses shards that disagree, and
// every save advances all shards in lockstep to one explicit number.
func (e *Engine) Peek() (epoch, checkpoint uint64, err error) {
	return e.shards[0].backend.Peek()
}

// SaveSnapshot persists a consistent engine image: it quiesces
// (in-flight batches finish, new ones wait), levels every shard to the
// maximum cycle count, saves each shard's control snapshot, and
// finally writes the manifest. Restore resumes exactly this image.
// Any KV state previously set (SaveSnapshotKV) or restored is carried
// forward unchanged.
func (e *Engine) SaveSnapshot() error { return e.SaveSnapshotKV(nil) }

// SaveSnapshotKV is SaveSnapshot with the oblivious key–value
// subsystem's directory state embedded in the manifest, so the KV
// geometry and counters are persisted at the same checkpoint cut as
// the shard images. okv.Store.Checkpoint is the intended caller — it
// holds the KV operation lock across the save, so the embedded state
// can never sit between the batches of a half-finished KV op. A nil
// kv preserves whatever KV state the manifest already carries.
func (e *Engine) SaveSnapshotKV(kv *snapshot.KVState) error {
	if e.dataDir == "" {
		return errors.New("engine: SaveSnapshot requires Options.DataDir")
	}
	return e.saveSnapshot(kv, 0)
}

// SaveSnapshotAt checkpoints every shard at the explicit lifetime
// number — the CHECKPT shard-control verb a -shard-serve node
// answers, so a gateway can drive a whole cluster to ONE aligned
// checkpoint cut (level, then CHECKPT the same number everywhere).
// Unlike SaveSnapshot it does not require an engine DataDir: a node
// persists shard state under its own directory, and the engine
// manifest file is only maintained when this engine owns one.
func (e *Engine) SaveSnapshotAt(target uint64) error {
	if target == 0 {
		return errors.New("engine: SaveSnapshotAt: checkpoint numbers start at 1")
	}
	return e.saveSnapshot(nil, target)
}

// saveSnapshot is the shared checkpoint path: quiesce, level, save
// every shard at one explicit checkpoint number, then persist the
// manifest if this engine maintains one. target 0 selects the next
// number automatically.
func (e *Engine) saveSnapshot(kv *snapshot.KVState, target uint64) error {
	e.pause.Lock()
	defer e.pause.Unlock()
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if kv != nil {
		e.manifest.KV = kv // under pause: serialised against other saves
	}
	// Level first: the image must show S identical cycle counts, so
	// persistence adds no cross-shard traffic-volume channel beyond
	// what a quiescent engine already shows.
	if err := e.level(); err != nil {
		return err
	}
	// One explicit checkpoint number for every shard — max across
	// shards + 1 — so a shard whose previous save transiently failed
	// (its counter lags) re-aligns here instead of staying skewed and
	// poisoning the restore-time min-cut pairing.
	if target == 0 {
		for _, sh := range e.shards {
			_, ck, err := sh.backend.Peek()
			if err != nil {
				return fmt.Errorf("engine: shard %d: %w", sh.id, err)
			}
			if ck > target {
				target = ck
			}
		}
		target++
	}
	for _, sh := range e.shards {
		if err := sh.backend.SaveSnapshotAt(target); err != nil {
			return fmt.Errorf("engine: shard %d: %w", sh.id, err)
		}
	}
	if e.dataDir == "" {
		return nil
	}
	payload, err := e.manifest.Encode()
	if err != nil {
		return err
	}
	sealed, err := e.manSealer.Seal(payload)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(manifestPath(e.dataDir), sealed)
}

// Restore resumes an engine from the image a previous SaveSnapshot
// left in opts.DataDir. The options must agree with the persisted
// manifest on every geometry dimension — a mismatch is refused before
// any shard state is touched — and carry the same master key, from
// which all shard keys re-derive.
func Restore(opts Options) (*Engine, error) {
	opts, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if opts.DataDir == "" {
		return nil, errors.New("engine: Restore requires Options.DataDir")
	}
	var prf *blockcipher.PRF
	if !opts.Insecure {
		if prf, err = blockcipher.NewPRF(opts.Key); err != nil {
			return nil, err
		}
	}
	sealer, err := manifestSealer(opts, prf, 0) // key is epoch-independent; 0 only seeds the unused nonce stream
	if err != nil {
		return nil, err
	}
	sealedMan, err := snapshot.ReadFile(manifestPath(opts.DataDir))
	if err != nil {
		return nil, err
	}
	payload, err := sealer.Open(sealedMan)
	if err != nil {
		return nil, fmt.Errorf("engine: manifest does not authenticate (wrong key or tampered file): %w", err)
	}
	man, err := snapshot.DecodeManifest(payload)
	if err != nil {
		return nil, err
	}
	if err := opts.CheckManifest(man); err != nil {
		return nil, err
	}
	e, err := assemble(opts, true)
	if err != nil {
		return nil, err
	}
	// Carry the KV directory state forward: okv.Resume reads it via
	// RestoredKVState, and a later SaveSnapshot without explicit KV
	// state re-persists it instead of silently dropping the table's
	// record.
	e.manifest.KV = man.KV
	return e, nil
}

// RestoredKVState returns the oblivious key–value directory state the
// restored manifest carried, or nil when the image belongs to a raw
// block store (fresh engines always return nil). okv.Resume validates
// its geometry and adopts its counters.
func (e *Engine) RestoredKVState() *snapshot.KVState { return e.manifest.KV }
