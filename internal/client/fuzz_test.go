package client

import (
	"encoding/hex"
	"net"
	"sort"
	"strings"
	"testing"
	"time"
)

// fuzzReplyDeadline bounds one input's whole call sequence. The peer
// closes the pipe once its bytes are consumed, so a correct client
// finishes in microseconds; only a hang runs into this.
const fuzzReplyDeadline = 10 * time.Second

// discardWrites is the client's end of the pipe with its requests
// dropped, so every call still reaches its read after the peer has
// hung up, and reads the peer's last bytes and then EOF.
type discardWrites struct{ net.Conn }

func (discardWrites) Write(p []byte) (int, error) { return len(p), nil }

// FuzzServerReplies plays a malicious server (or a malicious shard
// node talking to a gateway): the fuzzed bytes are everything the peer
// ever sends back, after which it hangs up. Against them the client
// runs a MULTI batch, STATS through ParseStats, PEEK, CYCLES, KGET and
// METRICS. Every call must return a value or an error: no panic, no
// hang, and a successful Batch must answer every op.
func FuzzServerReplies(f *testing.F) {
	keys := make([]string, 0, len(statsFixture()))
	for k := range statsFixture() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fields := make([]string, len(keys))
	for i, k := range keys {
		fields[i] = k + "=" + statsFixture()[k]
	}
	statsLine := "OK " + strings.Join(fields, " ")

	f.Add([]byte(strings.Join([]string{
		"OK 3", "OK 00ff10", "OK", "OK 00ff10", // MULTI: read, write, read
		statsLine,
		"OK epoch=1 checkpoint=0 blocks=64",
		"OK 60",
		"OK 00ff10",
		"OK " + hex.EncodeToString([]byte("horam_requests_total 96\n")),
	}, "\n") + "\n"))
	// Each reply line of the parser unit tests, as every reply.
	for _, line := range []string{
		"OK 00ff10", "ERR address 9 out of range", "OK zz",
		"OK", "OK 5", "ERR boom",
	} {
		f.Add([]byte(strings.Repeat(line+"\n", 9)))
	}
	f.Add([]byte(statsLine + "\n"))

	f.Fuzz(func(t *testing.T, replies []byte) {
		ours, peer := net.Pipe()
		answered := make(chan struct{})
		go func() {
			peer.Write(replies) // returns early once c.Close closes ours
			peer.Close()
			close(answered)
		}()
		c := newClient(discardWrites{ours})

		done := make(chan struct{})
		go func() {
			defer close(done)
			ops := []Op{{Addr: 1}, {Write: true, Addr: 2, Data: []byte{7}}, {Addr: 3}}
			if res, err := c.Batch(ops); err == nil && len(res) != len(ops) {
				t.Errorf("Batch answered %d of %d ops without an error", len(res), len(ops))
			}
			if kv, err := c.Stats(); err == nil {
				ParseStats(kv)
			}
			c.Peek()
			c.Cycles()
			c.KGet([]byte("k"))
			c.Metrics()
		}()
		select {
		case <-done:
		case <-time.After(fuzzReplyDeadline):
			t.Fatalf("client calls hung on replies %q", replies)
		}
		c.Close()
		<-answered
	})
}
