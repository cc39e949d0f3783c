// Fault-injection regression test for per-dispatch error attribution:
// every connection's request batch is its own engine batch, so when
// one of several concurrent dispatches fails, only that dispatch sees
// the error — the others get their real results.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

var errDrainFault = errors.New("injected drain fault")

// dispatchConcurrently releases all batches at once, one goroutine
// each, and returns each dispatch's error.
func dispatchConcurrently(s *Server, batches [][]*core.Request) []error {
	errs := make([]error, len(batches))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, reqs := range batches {
		wg.Add(1)
		go func(i int, reqs []*core.Request) {
			defer wg.Done()
			<-start
			errs[i] = s.dispatch(reqs)
		}(i, reqs)
	}
	close(start)
	wg.Wait()
	return errs
}

func TestConcurrentDispatchFaultIsolation(t *testing.T) {
	_, srv := startServer(t, Config{})

	var faultAddr atomic.Int64
	faultAddr.Store(-1)
	realDrain := srv.drain
	srv.drain = func(reqs []*core.Request) error {
		for _, r := range reqs {
			if r.Addr == faultAddr.Load() {
				return fmt.Errorf("%w (addr %d)", errDrainFault, r.Addr)
			}
		}
		return realDrain(reqs)
	}

	// Eight two-write batches on disjoint addresses; batch i writes
	// the byte i+1 to addresses 10i and 10i+1.
	const n = 8
	writes := func() [][]*core.Request {
		out := make([][]*core.Request, n)
		for i := range out {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 64)
			out[i] = []*core.Request{
				{Op: core.OpWrite, Addr: int64(10 * i), Data: payload},
				{Op: core.OpWrite, Addr: int64(10*i + 1), Data: payload},
			}
		}
		return out
	}

	// Fault a middle batch: it alone must see the error.
	const faulted = 3
	faultAddr.Store(10 * faulted)
	errs := dispatchConcurrently(srv, writes())
	for i, err := range errs {
		switch {
		case i == faulted && !errors.Is(err, errDrainFault):
			t.Errorf("batch %d (faulted) got %v, want the injected fault", i, err)
		case i != faulted && err != nil:
			t.Errorf("batch %d got %v, want nil — its requests really executed", i, err)
		}
	}
	// The serving counters count only windows that drained.
	if st := srv.Stats(); st.Batches != n-1 || st.Requests != 2*(n-1) {
		t.Errorf("counted %d windows / %d requests, want %d / %d", st.Batches, st.Requests, n-1, 2*(n-1))
	}

	// Read everything back: the clean batches' writes landed, the
	// faulted batch never reached the engine.
	faultAddr.Store(-1)
	reads := make([]*core.Request, 0, 2*n)
	for i := 0; i < n; i++ {
		reads = append(reads,
			&core.Request{Op: core.OpRead, Addr: int64(10 * i)},
			&core.Request{Op: core.OpRead, Addr: int64(10*i + 1)})
	}
	if err := srv.dispatch(reads); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		i := int(r.Addr / 10)
		want := bytes.Repeat([]byte{byte(i + 1)}, 64)
		if i == faulted {
			want = make([]byte, 64)
		}
		if !bytes.Equal(r.Result, want) {
			t.Errorf("addr %d reads %x, want %x", r.Addr, r.Result, want)
		}
	}

	// With the fault cleared every concurrent batch succeeds.
	for i, err := range dispatchConcurrently(srv, writes()) {
		if err != nil {
			t.Errorf("batch %d got %v after the fault cleared", i, err)
		}
	}
}
