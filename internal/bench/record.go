package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"time"
)

// One record schema for every psdbench suite. BENCH_<suite>.json is a
// JSON array of Entry values, oldest first; each run appends one entry,
// so every file is a trajectory.

// Entry is one recorded run of one suite.
type Entry struct {
	Suite   string   `json:"suite"`
	Label   string   `json:"label"`
	Date    string   `json:"date"`
	Env     *Env     `json:"env,omitempty"`
	Records []Record `json:"records"`
}

// Env fingerprints the machine a run was recorded on, so wall-clock
// metrics are compared only between like environments.
type Env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Record is one measured cell: params are the inputs the suite chose
// (offered load, chain rules, hosts, shards, seed), metrics are what it
// measured.
type Record struct {
	Workload string             `json:"workload"`
	Config   string             `json:"config,omitempty"`
	Params   map[string]float64 `json:"params,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
}

// NewEntry stamps records with today's date and this process's
// environment.
func NewEntry(suite, label string, recs []Record) Entry {
	return Entry{
		Suite: suite,
		Label: label,
		Date:  time.Now().UTC().Format("2006-01-02"),
		Env: &Env{
			Go:         runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Records: recs,
	}
}

// paramKeys are the result fields that are inputs a suite chose rather
// than outcomes it measured.
var paramKeys = map[string]bool{
	"offered_mbps": true, "chain_rules": true, "hosts": true, "shards": true, "seed": true,
}

// Records turns a suite's result rows into records through their JSON
// encoding, so each field keeps its json tag as its key and omitempty
// fields stay omitted. String fields "config" and "arch" name the
// configuration; any other string field names the workload. Numbers and
// booleans (as 0/1) become params or metrics; nested values are left
// out.
func Records[T any](rows []T) ([]Record, error) {
	recs := make([]Record, 0, len(rows))
	for _, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		var fields map[string]any
		if err := json.Unmarshal(b, &fields); err != nil {
			return nil, err
		}
		r := Record{Metrics: map[string]float64{}}
		for k, v := range fields {
			var x float64
			switch v := v.(type) {
			case string:
				if k == "config" || k == "arch" {
					r.Config = v
				} else {
					r.Workload = v
				}
				continue
			case float64:
				x = v
			case bool:
				if v {
					x = 1
				}
			default:
				continue
			}
			if paramKeys[k] {
				if r.Params == nil {
					r.Params = map[string]float64{}
				}
				r.Params[k] = x
			} else {
				r.Metrics[k] = x
			}
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// AppendEntry appends e to the entry array in the file at path,
// creating the file if it does not exist. Earlier entries are carried
// over verbatim. Path "-" prints only e to standard output.
func AppendEntry(path string, e Entry) error {
	if path == "-" {
		b, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(b, '\n'))
		return err
	}
	var entries []json.RawMessage
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(old, &entries); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(append(entries, raw), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
