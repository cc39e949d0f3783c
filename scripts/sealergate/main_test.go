package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}
	for _, tc := range []struct {
		name   string
		got    map[string]float64
		fail   bool
		naming string
	}{
		{"all at baseline", map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}, false, ""},
		{"above floor", map[string]float64{"BenchmarkA": 81, "BenchmarkB": 170}, false, ""},
		{"below floor", map[string]float64{"BenchmarkA": 79, "BenchmarkB": 200}, true, "BenchmarkA"},
		{"missing from run", map[string]float64{"BenchmarkA": 100}, true, "BenchmarkB"},
		{"no baseline", map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200, "BenchmarkC": 5}, true, "BenchmarkC"},
	} {
		report, failed := compare(base, tc.got, 0.80)
		if failed != tc.fail {
			t.Errorf("%s: failed = %v, want %v\n%s", tc.name, failed, tc.fail, report)
		}
		if tc.naming != "" && !failNames(report, tc.naming) {
			t.Errorf("%s: no FAIL line names %s\n%s", tc.name, tc.naming, report)
		}
	}
}

func failNames(report, name string) bool {
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "FAIL") && strings.Contains(line, name) {
			return true
		}
	}
	return false
}
