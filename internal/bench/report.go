package bench

import (
	"encoding/json"
	"os"
	"runtime"
)

// Report is the JSON envelope of the committed BENCH_shard, _latency,
// _persist, _kv and _obs baselines: the experiment name, the host it
// ran on, its parameters and its rows. Only the persist experiment
// sets Device.
type Report[P, R any] struct {
	Experiment string         `json:"experiment"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUs       int            `json:"cpus"`
	Params     P              `json:"params"`
	Device     *PersistDevRow `json:"device,omitempty"`
	Rows       []R            `json:"rows"`
}

// NewReport wraps one experiment's parameters and rows with this
// host's fields.
func NewReport[P, R any](experiment string, p P, rows []R) Report[P, R] {
	return Report[P, R]{
		Experiment: experiment,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		Params:     p,
		Rows:       rows,
	}
}

// JSON renders the report as an indented JSON baseline with a trailing
// newline.
func (r Report[P, R]) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON writes the report to path as an indented JSON baseline.
func (r Report[P, R]) WriteJSON(path string) error {
	data, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
