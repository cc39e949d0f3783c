package device

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simclock"
)

func newTestFile(t *testing.T, p Profile, slotSize int, slots int64, fsyncEvery int) (*File, *simclock.Clock, string) {
	t.Helper()
	clk := simclock.New()
	path := filepath.Join(t.TempDir(), "dev.dat")
	d, err := NewFile(FileConfig{
		Path: path, Profile: p, SlotSize: slotSize, Slots: slots,
		Clock: clk, FsyncEvery: fsyncEvery,
	})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d, clk, path
}

func TestFileValidation(t *testing.T) {
	clk := simclock.New()
	path := filepath.Join(t.TempDir(), "dev.dat")
	cases := []struct {
		name string
		cfg  FileConfig
	}{
		{"bad profile", FileConfig{Path: path, Profile: Profile{Name: "x"}, SlotSize: 8, Slots: 8, Clock: clk}},
		{"zero slot size", FileConfig{Path: path, Profile: PaperHDD(), SlotSize: 0, Slots: 8, Clock: clk}},
		{"zero slots", FileConfig{Path: path, Profile: PaperHDD(), SlotSize: 8, Slots: 0, Clock: clk}},
		{"nil clock", FileConfig{Path: path, Profile: PaperHDD(), SlotSize: 8, Slots: 8}},
		{"negative fsync", FileConfig{Path: path, Profile: PaperHDD(), SlotSize: 8, Slots: 8, Clock: clk, FsyncEvery: -1}},
	}
	for _, tc := range cases {
		if _, err := NewFile(tc.cfg); err == nil {
			t.Errorf("%s: NewFile accepted invalid config", tc.name)
		}
	}
}

func TestFileRoundTripAndZeroFill(t *testing.T) {
	d, _, _ := newTestFile(t, PaperHDD(), 16, 32, 0)
	src := []byte("0123456789abcdef")
	if err := d.Write(5, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	dst := make([]byte, 16)
	if err := d.Read(5, dst); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("Read = %q, want %q", dst, src)
	}
	// A never-written slot reads as zeros (preallocated hole).
	if err := d.Read(30, dst); err != nil {
		t.Fatalf("Read unwritten: %v", err)
	}
	if !bytes.Equal(dst, make([]byte, 16)) {
		t.Fatalf("unwritten slot = %x, want zeros", dst)
	}
}

// TestFileMatchesSimAccounting drives the same access pattern through
// a Sim and a File with the same profile and asserts identical Stats
// and clock time — the property that makes the swap invisible to the
// paper's cost model.
func TestFileMatchesSimAccounting(t *testing.T) {
	p := PaperHDD()
	sim, simClk := newTestDevice(t, p, 32, 64)
	file, fileClk, _ := newTestFile(t, p, 32, 64, 0)

	src := bytes.Repeat([]byte{0xab}, 32)
	dst := make([]byte, 32)
	drive := func(d Backend) {
		for i := int64(0); i < 64; i++ { // sequential sweep
			if err := d.Write(i, src); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		d.ResetHead()
		for _, slot := range []int64{7, 8, 9, 3, 60, 61} { // mixed run
			if err := d.Read(slot, dst); err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
	}
	drive(sim)
	drive(file)

	if sim.Stats() != file.Stats() {
		t.Fatalf("stats diverged:\nsim  %+v\nfile %+v", sim.Stats(), file.Stats())
	}
	if simClk.Now() != fileClk.Now() {
		t.Fatalf("clock diverged: sim %v file %v", simClk.Now(), fileClk.Now())
	}
	if file.Stats().SeqReads == 0 || file.Stats().SeqWrites == 0 {
		t.Fatal("file device never hit the sequential fast path")
	}
}

func TestFileSurvivesReopen(t *testing.T) {
	p := PaperHDD()
	clk := simclock.New()
	path := filepath.Join(t.TempDir(), "dev.dat")
	d, err := NewFile(FileConfig{Path: path, Profile: p, SlotSize: 16, Slots: 8, Clock: clk})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	src := []byte("persistent-block")
	if err := d.Write(3, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := NewFile(FileConfig{Path: path, Profile: p, SlotSize: 16, Slots: 8, Clock: simclock.New()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	dst := make([]byte, 16)
	if err := d2.Read(3, dst); err != nil {
		t.Fatalf("Read after reopen: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("after reopen slot 3 = %q, want %q", dst, src)
	}

	// Reopening with a different geometry must be refused, not
	// silently reinterpreted.
	if _, err := NewFile(FileConfig{Path: path, Profile: p, SlotSize: 16, Slots: 16, Clock: simclock.New()}); err == nil {
		t.Fatal("NewFile accepted an existing file with mismatched geometry")
	}
}

func TestFileRawPathsChargeNothing(t *testing.T) {
	d, clk, _ := newTestFile(t, PaperHDD(), 16, 8, 0)
	src := bytes.Repeat([]byte{7}, 16)
	if err := d.WriteRaw(2, src); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	dst := make([]byte, 16)
	if err := d.ReadRaw(2, dst); err != nil {
		t.Fatalf("ReadRaw: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("ReadRaw = %x, want %x", dst, src)
	}
	if clk.Now() != 0 {
		t.Fatalf("raw access advanced the clock to %v", clk.Now())
	}
	if d.Stats() != (Stats{}) {
		t.Fatal("raw access touched the counters")
	}
}

func TestFileFsyncPolicy(t *testing.T) {
	d, _, _ := newTestFile(t, PaperHDD(), 16, 32, 2)
	src := bytes.Repeat([]byte{1}, 16)
	for i := int64(0); i < 5; i++ {
		if err := d.Write(i, src); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if got := d.Syncs(); got != 2 { // after writes 2 and 4
		t.Fatalf("Syncs = %d after 5 writes with FsyncEvery=2, want 2", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := d.Syncs(); got != 3 {
		t.Fatalf("Syncs = %d after explicit Sync, want 3", got)
	}
}

// TestFileWriteSlotsWritebackIsNoSync: the write-out WriteSlots starts
// for each burst is a hint, not a consistency point — it counts no
// fsync, and the burst's bytes are in the file at their offsets.
func TestFileWriteSlotsWritebackIsNoSync(t *testing.T) {
	d, _, path := newTestFile(t, PaperHDD(), 16, 32, 0)
	slots := []int64{4, 5, 6, 9}
	bufs := make([][]byte, len(slots))
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, 16)
	}
	if err := d.WriteSlots(slots, bufs); err != nil {
		t.Fatalf("WriteSlots: %v", err)
	}
	if got := d.Syncs(); got != 0 {
		t.Fatalf("Syncs = %d after WriteSlots, want 0", got)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slots {
		if got := raw[s*16 : (s+1)*16]; !bytes.Equal(got, bufs[i]) {
			t.Fatalf("slot %d on disk = %x, want %x", s, got, bufs[i])
		}
	}
}

func TestFileHookObservesAccesses(t *testing.T) {
	d, _, _ := newTestFile(t, PaperHDD(), 16, 8, 0)
	var ops []Op
	var slots []int64
	d.SetHook(func(_ string, op Op, slot int64) {
		ops = append(ops, op)
		slots = append(slots, slot)
	})
	src := bytes.Repeat([]byte{9}, 16)
	if err := d.Write(4, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.Read(4, make([]byte, 16)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	d.SetHook(nil)
	if err := d.Read(4, make([]byte, 16)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(ops) != 2 || ops[0] != OpWrite || ops[1] != OpRead || slots[0] != 4 || slots[1] != 4 {
		t.Fatalf("hook saw ops=%v slots=%v, want [write read] [4 4]", ops, slots)
	}
}

func TestFileUnderTiered(t *testing.T) {
	clk := simclock.New()
	fast, err := New(DRAM(), 16, 4, clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	path := filepath.Join(t.TempDir(), "slow.dat")
	slow, err := NewFile(FileConfig{Path: path, Profile: PaperHDD(), SlotSize: 16, Slots: 8, Clock: clk})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	defer slow.Close()
	tiered, err := NewTiered(fast, slow, 4, 12)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	src := []byte("tiered-file-slot")
	if err := tiered.Write(10, src); err != nil { // slow tier, slot 6 on file
		t.Fatalf("Write: %v", err)
	}
	dst := make([]byte, 16)
	if err := tiered.ReadRaw(10, dst); err != nil {
		t.Fatalf("ReadRaw: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("tiered slot 10 = %q, want %q", dst, src)
	}
	if err := tiered.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The payload really landed in the file (slot 10-4=6).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(raw[6*16:7*16], src) {
		t.Fatal("payload did not reach the backing file at the expected offset")
	}
}
