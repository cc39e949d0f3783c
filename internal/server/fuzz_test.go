// Fuzz coverage for the wire-protocol parser: arbitrary client bytes —
// malformed verbs, bad hex, out-of-range addresses, torn MULTI frames,
// KV verbs against both modes — must never panic the server, hang a
// connection, or elicit a response line outside the protocol (every
// line starts OK, ERR or MISS). The same input is replayed against a
// block-mode and a KV-mode server so mode-dependent refusals (raw
// WRITE in KV mode, K* verbs without -kv) are both exercised.
package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/okv"
)

// fuzzServer starts a small insecure server for the whole fuzz run and
// returns its address.
func fuzzServer(f *testing.F, kv bool) string {
	f.Helper()
	seed := "fuzz-wire-block"
	if kv {
		seed = "fuzz-wire-kv"
	}
	e, err := engine.New(engine.Options{
		Blocks:      128,
		BlockSize:   32,
		MemoryBytes: 4 << 10,
		Insecure:    true,
		Seed:        seed,
		Shards:      2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	cfg := Config{Engine: e}
	if kv {
		store, err := okv.New(okv.Options{
			Backend:       e,
			MaxValueBytes: 64,
			Insecure:      true,
			Seed:          seed,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(store.Close)
		cfg.KV = store
	}
	srv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	f.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			f.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String()
}

func FuzzWireProtocol(f *testing.F) {
	addrs := []string{fuzzServer(f, false), fuzzServer(f, true)}

	payload := hex.EncodeToString(bytes.Repeat([]byte{0xab}, 32))
	f.Add([]byte("READ 0\n"))
	f.Add([]byte("WRITE 1 " + payload + "\n"))
	f.Add([]byte("WRITE 1 zz\n"))
	f.Add([]byte("READ 99999999999999999999\n")) // int64 overflow
	f.Add([]byte("READ -3\nREAD 128\n"))         // both out of range
	f.Add([]byte("MULTI 2\nREAD 3\nWRITE 4 " + payload + "\n"))
	f.Add([]byte("MULTI 3\nREAD 1\n"))        // torn frame: fewer lines than declared
	f.Add([]byte("MULTI 2\nKGET 00\nQUIT\n")) // non-READ/WRITE sub-line swallows QUIT
	f.Add([]byte("MULTI -5\nREAD 1\n"))       // unusable count kills framing
	f.Add([]byte("MULTI abc\nMULTI 9999999\n"))
	f.Add([]byte("KGET 616c696365\nKSET 616c696365 00ff\nKDEL 616c696365\n"))
	f.Add([]byte("KSET zz 00\nKDEL zz\nKGET\n"))
	f.Add([]byte("STATS\nQUIT\nREAD 0\n")) // bytes after QUIT must not execute
	f.Add([]byte("  read  5  \n\n\nwrite 5\n"))
	f.Add([]byte("garbage \x00\xff\x13\nREAD x\n"))
	f.Add(bytes.Repeat([]byte{'A'}, 4096)) // one long unterminated token

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("bounding per-iteration work")
		}
		for _, addr := range addrs {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(data); err != nil {
				// The server may legitimately tear the connection down
				// mid-write (lost framing); that is not a parser bug.
				conn.Close()
				continue
			}
			// EOF the read side so a torn MULTI frame terminates the
			// scan loop instead of waiting forever for the rest.
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			r := bufio.NewReaderSize(conn, 64<<10)
			for {
				line, err := r.ReadString('\n')
				if line != "" {
					line = strings.TrimRight(line, "\n")
					if !strings.HasPrefix(line, "OK") && !strings.HasPrefix(line, "ERR") && line != "MISS" {
						t.Fatalf("protocol-breaking response line %q for input %q", line, data)
					}
				}
				if err != nil {
					if err != io.EOF {
						t.Fatalf("read: %v", err)
					}
					break
				}
			}
			conn.Close()
		}
	})
}
