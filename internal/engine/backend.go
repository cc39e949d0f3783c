// The shard-transport seam. Historically the engine hard-coded
// []*core.Client — every shard was an in-process H-ORAM instance — so
// "scatter a batch, level cycle counts, checkpoint every shard" was
// welded to one address space. ShardBackend splits the scatter/gather
// and persist coordination from the transport: the engine speaks this
// interface only, and a shard may be the same in-process core.Client
// as before (localShard, extracted here, behavior-identical) or a
// horamd -shard-serve node on the far end of a TCP connection
// (internal/cluster's remote backend, speaking the CYCLES/PAD/
// CHECKPT/PEEK shard-control verbs).
package engine

import (
	"errors"

	"repro/internal/core"
)

// ShardBackend is one shard of a sharded engine: a full H-ORAM
// instance the engine drains batches into, levels, and checkpoints.
// Implementations must be safe for the engine's access pattern — one
// scheduler goroutine calling Batch, with Cycles/PadToCycles/Stats/
// SaveSnapshotAt called only between drains (scatter never touches
// the backend; the engine queues requests itself).
type ShardBackend interface {
	// Blocks is the shard-local address-space size; the engine
	// cross-checks it against its PRF partition at assembly.
	Blocks() int64
	// Batch runs the shard-local requests as one scheduler batch;
	// results land in each request's Result field in submission order.
	Batch(reqs []*Request) error
	// Cycles returns the shard's cumulative scheduler cycle count —
	// the quantity the engine levels across shards. Remote backends
	// fetch it over the wire (CYCLES), so it can fail.
	Cycles() (int64, error)
	// PadToCycles runs dummy cycles until the cumulative count reaches
	// target and returns how many were run (PAD over the wire).
	PadToCycles(target int64) (int64, error)
	// Stats returns the shard's scheme counters. Remote backends
	// reconstruct them from the node's STATS line; fields the wire
	// protocol does not carry stay zero.
	Stats() core.Stats
	// SaveSnapshotAt checkpoints the shard's control state at an
	// explicit lifetime number (CHECKPT over the wire), so the engine
	// can drive every shard to ONE aligned cut.
	SaveSnapshotAt(checkpoint uint64) error
	// Peek reports the shard's key-derivation epoch and lifetime
	// checkpoint counter without disturbing it (PEEK over the wire).
	// The engine refuses to assemble shards whose epochs or
	// checkpoints disagree — the directory (or cluster) would mix
	// state from different checkpoint cuts.
	Peek() (epoch, checkpoint uint64, err error)
	// RestoreCheckpoint re-opens the shard at the given checkpoint cut
	// and boot epoch. Only in-process shards support it: a remote node
	// restores its own directory at startup, and the engine refuses to
	// drive a coordinated restore over the wire (that is the snapshot
	// migration/failover seam, deliberately left to a later change).
	RestoreCheckpoint(checkpoint, epoch uint64) error
	// Close releases the shard's resources. The engine joins all
	// shards' close errors (errors.Join) into its own Close result.
	Close() error
}

// ErrRemoteRestore is returned by backends that cannot re-open state
// over their transport.
var ErrRemoteRestore = errors.New("engine: remote shards restore from their own data directory at node startup; coordinated restore over the wire is not supported")

// localShard is the in-process ShardBackend: exactly the core.Client
// the engine always ran, behind the transport seam. It carries the
// shard's resolved core options so the offline persistence protocol
// (Peek before open, RestoreCheckpoint at a chosen cut) works before
// the client exists.
type localShard struct {
	opts   core.Options
	client *core.Client
}

// open builds the shard fresh (reinitialising any durable layout).
func (l *localShard) open(epoch uint64) error {
	c, err := core.OpenAt(l.opts, epoch)
	if err != nil {
		return err
	}
	l.client = c
	return nil
}

func (l *localShard) Blocks() int64 { return l.opts.Blocks }

func (l *localShard) Batch(reqs []*Request) error { return l.client.Batch(reqs) }

func (l *localShard) Cycles() (int64, error) { return l.client.Stats().Cycles, nil }

func (l *localShard) PadToCycles(target int64) (int64, error) {
	return l.client.PadToCycles(target)
}

func (l *localShard) Stats() core.Stats { return l.client.Stats() }

func (l *localShard) SaveSnapshotAt(checkpoint uint64) error {
	return l.client.SaveSnapshotAt(checkpoint)
}

// Peek reports the live client's counters once it is open, and reads
// the durable directory (core.Peek) before that — the restore path
// peeks every shard to choose one consistent cut before opening any.
func (l *localShard) Peek() (epoch, checkpoint uint64, err error) {
	if l.client != nil {
		return l.client.Epoch(), l.client.Checkpoint(), nil
	}
	return core.Peek(l.opts)
}

func (l *localShard) RestoreCheckpoint(checkpoint, epoch uint64) error {
	c, err := core.RestoreCheckpoint(l.opts, checkpoint, epoch)
	if err != nil {
		return err
	}
	l.client = c
	return nil
}

func (l *localShard) Close() error {
	if l.client == nil {
		return nil
	}
	return l.client.Close()
}
