// The shard-control verbs: the wire half of the cluster control
// plane. A horamd -shard-serve node serves its one shard through the
// ordinary block verbs and exposes these four on top, so a gateway
// engine can level cycle counts across nodes (CYCLES/PAD), drive an
// aligned cluster-wide checkpoint (CHECKPT), and validate a node's
// identity and geometry before trusting it with traffic (PEEK).
package server

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// handleShardControl serves one CYCLES/PAD/CHECKPT/PEEK/METRICS command.
// These verbs are not data batches: they are control-plane operations
// issued between a gateway's data batches, not data-plane requests
// that should coalesce with them — and PAD in particular must observe
// the cycle count the preceding drains left.
func (s *Server) handleShardControl(w *bufio.Writer, fields []string) {
	verb := strings.ToUpper(fields[0])
	if !s.cfg.ShardControl {
		fmt.Fprintln(w, "ERR shard-control disabled (start horamd with -shard-serve)")
		return
	}
	switch verb {
	case "CYCLES":
		if len(fields) != 1 {
			fmt.Fprintln(w, "ERR usage: CYCLES")
			return
		}
		n, err := s.engine.Cycles()
		if err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		fmt.Fprintf(w, "OK %d\n", n)
	case "PAD":
		if len(fields) != 2 {
			fmt.Fprintln(w, "ERR usage: PAD <target-cycles>")
			return
		}
		target, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || target < 0 {
			fmt.Fprintln(w, "ERR bad PAD target")
			return
		}
		padded, err := s.engine.PadToCycles(target)
		if err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		fmt.Fprintf(w, "OK %d\n", padded)
	case "CHECKPT":
		if len(fields) != 2 {
			fmt.Fprintln(w, "ERR usage: CHECKPT <checkpoint>")
			return
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil || n == 0 {
			fmt.Fprintln(w, "ERR bad CHECKPT number (checkpoints start at 1)")
			return
		}
		if err := s.engine.SaveSnapshotAt(n); err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		fmt.Fprintln(w, "OK")
	case "PEEK":
		if len(fields) != 1 {
			fmt.Fprintln(w, "ERR usage: PEEK")
			return
		}
		fmt.Fprintln(w, s.peekLine())
	case "METRICS":
		if len(fields) != 1 {
			fmt.Fprintln(w, "ERR usage: METRICS")
			return
		}
		// The node's whole Prometheus exposition, hex-encoded onto one
		// line. A gateway answers its own /metrics scrape by fetching
		// every node's exposition through this verb and relabelling it
		// (internal/cluster.MetricsHandler), so one scrape sees the
		// cluster. Shard-control-gated like PAD: the exposition is
		// leak-audited, but a node's metrics belong to its operator,
		// not to arbitrary block-protocol clients.
		var b strings.Builder
		if err := s.reg.WritePrometheus(&b); err != nil {
			fmt.Fprintln(w, "ERR "+err.Error())
			return
		}
		fmt.Fprintln(w, "OK "+hex.EncodeToString([]byte(b.String())))
	}
}

// peekLine renders the node's manifest echo plus the live checkpoint
// counter. The seed is hex-encoded: it is an arbitrary string that may
// contain spaces, and the line format is whitespace-delimited.
func (s *Server) peekLine() string {
	_, ckpt, err := s.engine.Peek()
	if err != nil {
		return "ERR " + err.Error()
	}
	man := s.engine.ManifestEcho()
	return fmt.Sprintf(
		"OK epoch=%d checkpoint=%d blocks=%d blocksize=%d shards=%d cshards=%d shard=%d memory=%d shuffleratio=%g monolithic=%t constanttime=%t insecure=%t seed=%s",
		man.Epoch, ckpt, man.Blocks, man.BlockSize, man.Shards,
		man.ClusterShards, man.ShardIndex, man.MemoryBytes,
		man.ShuffleRatio, man.MonolithicShuffle, man.ConstantTime,
		man.Insecure, hex.EncodeToString([]byte(man.Seed)))
}
