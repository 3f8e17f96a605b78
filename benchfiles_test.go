package repro_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestBenchFilesSchema: every checked-in BENCH_<suite>.json is a
// trajectory in the one record schema — at least two entries of that
// suite, oldest first, each record carrying at least one metric.
func TestBenchFilesSchema(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, ".ci.json") {
			continue // local CI output, not checked in
		}
		checked++
		suite := strings.TrimSuffix(strings.TrimPrefix(path, "BENCH_"), ".json")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var entries []bench.Entry
		if err := dec.Decode(&entries); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(entries) < 2 {
			t.Errorf("%s: %d entries, want a trajectory of at least 2", path, len(entries))
		}
		for i, e := range entries {
			if e.Suite != suite {
				t.Errorf("%s entry %d (%s): suite %q", path, i, e.Label, e.Suite)
			}
			if i > 0 && e.Date < entries[i-1].Date {
				t.Errorf("%s entry %d (%s): date %s before %s", path, i, e.Label, e.Date, entries[i-1].Date)
			}
			for j, r := range e.Records {
				if len(r.Metrics) == 0 {
					t.Errorf("%s entry %d (%s) record %d (%s): no metrics", path, i, e.Label, j, r.Workload)
				}
			}
		}
	}
	if checked != 7 {
		t.Errorf("checked %d BENCH files, want 7", checked)
	}
}
