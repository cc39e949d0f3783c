package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// roundTrip decodes a committed baseline into the Report envelope and
// re-encodes it: the bytes must come back unchanged, so the one writer
// still produces every committed file's keys in their committed order.
func roundTrip[P, R any](t *testing.T, path string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	var rep Report[P, R]
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s does not re-encode byte-for-byte:\n%s", path, got)
	}
}

func TestReportRoundTripsCommittedBaselines(t *testing.T) {
	roundTrip[KVParams, KVRow](t, "../../BENCH_kv.json")
	roundTrip[PersistParams, PersistRow](t, "../../BENCH_persist.json")
	roundTrip[ShardParams, ShardRow](t, "../../BENCH_shard.json")
	roundTrip[LatencyParams, LatencyRow](t, "../../BENCH_latency.json")
	roundTrip[ObsParams, ObsRow](t, "../../BENCH_obs.json")
}

// TestReportOmitsDeviceUnlessSet: only the persist baseline carries a
// device row.
func TestReportOmitsDeviceUnlessSet(t *testing.T) {
	rep := NewReport("kv", KVParams{}, []KVRow{})
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"device"`)) {
		t.Fatalf("device key without a device row:\n%s", data)
	}
	rep.Device = &PersistDevRow{}
	if data, err = rep.JSON(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"device"`)) {
		t.Fatalf("device row missing:\n%s", data)
	}
}
