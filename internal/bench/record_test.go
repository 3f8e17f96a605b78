package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendEntry: each append adds one entry and carries the earlier
// entries over byte for byte; "-" receives only the new entry.
func TestAppendEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	first := Entry{Suite: "test", Label: "a", Date: "2026-01-01", Records: []Record{
		{Workload: "w", Config: "c", Params: map[string]float64{"seed": 1}, Metrics: map[string]float64{"kbps": 878.6183408091628}},
	}}
	second := NewEntry("test", "b", []Record{{Workload: "w", Metrics: map[string]float64{"kbps": 1}}})

	if err := AppendEntry(path, first); err != nil {
		t.Fatal(err)
	}
	one, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendEntry(path, second); err != nil {
		t.Fatal(err)
	}
	two, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(two, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Label != "a" || entries[1].Label != "b" || entries[1].Env == nil {
		t.Fatalf("got entries %+v, want a then b (with env)", entries)
	}
	// The first entry's bytes: everything in the one-entry file before
	// its closing bracket.
	firstBytes := bytes.TrimSuffix(bytes.TrimSpace(one), []byte("]"))
	firstBytes = bytes.TrimSpace(firstBytes)
	if !bytes.HasPrefix(two, firstBytes) {
		t.Fatalf("first entry changed on append:\nbefore:\n%s\nafter:\n%s", one, two)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = AppendEntry("-", second)
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	printed, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Entry
	dec := json.NewDecoder(bytes.NewReader(printed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("stdout is not one entry: %v\n%s", err, printed)
	}
	if got.Label != "b" || len(got.Records) != 1 {
		t.Fatalf("stdout entry %+v, want only the new entry", got)
	}
}

// TestRecordsFromTags: result structs become records through their json
// tags — strings name the workload and configuration, chosen inputs
// become params, omitempty zeros stay out, and booleans count as 0/1.
func TestRecordsFromTags(t *testing.T) {
	recs, err := Records([]OffloadCell{{Config: "c", Workload: "tcp-steady", OfferedMbps: 5, KBps: 612.5, SwChecksumBytes: 0}})
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Workload != "tcp-steady" || r.Config != "c" {
		t.Fatalf("workload/config = %q/%q", r.Workload, r.Config)
	}
	if len(r.Params) != 1 || r.Params["offered_mbps"] != 5 {
		t.Fatalf("params = %v, want offered_mbps 5", r.Params)
	}
	if len(r.Metrics) != 2 || r.Metrics["kbps"] != 612.5 {
		t.Fatalf("metrics = %v, want kbps and sw_checksum_bytes only", r.Metrics)
	}
	type verdict struct {
		Name   string `json:"name"`
		Passed bool   `json:"passed"`
		SLO    []int  `json:"slo"`
	}
	recs, err = Records([]*verdict{{Name: "incast", Passed: true, SLO: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if m := recs[0].Metrics; len(m) != 1 || m["passed"] != 1 {
		t.Fatalf("metrics = %v, want passed 1 and no nested slo", m)
	}
}
