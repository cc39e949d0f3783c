package client

import (
	"strings"
	"testing"
	"time"
)

// statsFixture is a plausible 2-shard KV-mode STATS map, shaped like
// internal/server's appendStatsLine output. The live round trip
// against a real server lives in internal/server's obs tests; these
// unit tests pin the parser's own contract.
func statsFixture() map[string]string {
	return map[string]string{
		"requests": "96", "hits": "40", "misses": "56",
		"shuffles": "2", "quanta": "52",
		"max_cycle": "0.000128000s", "simtime": "0.012288000s",
		"shards": "2",
		"conns":  "3", "active": "1", "rejected": "0",
		"batches": "48", "mean_batch": "2.00",
		"hist": "1:12,2:36", "shard_hist": "1:24,2:36",
		"kv_count": "5", "kv_capacity": "64",
		"kv_gets": "10", "kv_sets": "6", "kv_dels": "1", "kv_misses": "2",
		"s0_depth": "256", "s0_cycles": "60", "s0_pad": "10", "s0_quanta": "26",
		"s0_maxcycle": "0.000128000s", "s0_batches": "30", "s0_reqs": "50", "s0_hist": "1:10,2:20",
		"s1_depth": "256", "s1_cycles": "60", "s1_pad": "14", "s1_quanta": "26",
		"s1_maxcycle": "0.000128000s", "s1_batches": "18", "s1_reqs": "46", "s1_hist": "1:14,2:16",
	}
}

func TestParseStatsFixture(t *testing.T) {
	st, err := ParseStats(statsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 96 || st.Shards != 2 || st.MeanBatch != 2.00 {
		t.Fatalf("parsed %+v", st)
	}
	if st.MaxCycle != 128*time.Microsecond {
		t.Fatalf("max_cycle parsed as %v", st.MaxCycle)
	}
	if st.KV == nil || st.KV.Gets != 10 || st.KV.Capacity != 64 {
		t.Fatalf("kv group parsed as %+v", st.KV)
	}
	if len(st.PerShard) != 2 {
		t.Fatalf("per-shard groups: %d", len(st.PerShard))
	}
	if s1 := st.PerShard[1]; s1.Shard != 1 || s1.Pad != 14 || s1.Hist != "1:14,2:16" {
		t.Fatalf("shard 1 parsed as %+v", s1)
	}
}

func TestParseStatsWithoutKVGroup(t *testing.T) {
	kv := statsFixture()
	for k := range kv {
		if strings.HasPrefix(k, "kv_") {
			delete(kv, k)
		}
	}
	st, err := ParseStats(kv)
	if err != nil {
		t.Fatal(err)
	}
	if st.KV != nil {
		t.Fatalf("kv group materialised from nothing: %+v", st.KV)
	}
}

func TestParseStatsErrors(t *testing.T) {
	// Every failure must name the offending field.
	cases := []struct {
		mutate func(map[string]string)
		want   string
	}{
		{func(kv map[string]string) { delete(kv, "requests") }, "requests"},
		{func(kv map[string]string) { kv["batches"] = "many" }, "batches"},
		{func(kv map[string]string) { kv["requests"] = "3.5" }, "requests"},
		{func(kv map[string]string) { kv["max_cycle"] = "128" }, "max_cycle"},
		{func(kv map[string]string) { delete(kv, "s1_cycles") }, "s1_cycles"},
		{func(kv map[string]string) { kv["kv_misses"] = "-" }, "kv_misses"},
		{func(kv map[string]string) { kv["shards"] = "70000" }, "shards"},
	}
	for _, tc := range cases {
		kv := statsFixture()
		tc.mutate(kv)
		_, err := ParseStats(kv)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mutation of %s: err = %v, want mention of it", tc.want, err)
		}
	}
}

// TestStatInt pins the integer-field parser every ParseStats counter
// goes through: a present integer parses, and a missing key or a
// non-integer value sets the sticky error.
func TestStatInt(t *testing.T) {
	kv := map[string]string{"requests": "42", "mean_batch": "3.5"}
	p := &statFields{kv: kv}
	if n := p.int("requests"); n != 42 || p.err != nil {
		t.Errorf("int(requests) = %d, %v", n, p.err)
	}
	p = &statFields{kv: kv}
	if p.int("absent"); p.err == nil {
		t.Error("missing key accepted")
	}
	p = &statFields{kv: kv}
	if p.int("mean_batch"); p.err == nil {
		t.Error("non-integer accepted")
	}
}
