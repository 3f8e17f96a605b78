package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestTableGolden regenerates the paper's Tables 2, 3 and 4 at default
// effort and diffs each against its checked-in golden, so a drifted
// cell shows up as a reviewable diff naming the row. Regenerate with
//
//	go test ./cmd/psdbench -run TestTableGolden -update
func TestTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper tables take several seconds; skipped with -short")
	}
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			var buf bytes.Buffer
			writeTable(&buf, n, bench.Options{LatRounds: defaultRounds, TotalBytes: defaultMB << 20})
			golden := filepath.Join("testdata", fmt.Sprintf("table%d.golden", n))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if bytes.Equal(buf.Bytes(), want) {
				return
			}
			got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(got) || i < len(wantLines); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("table %d differs from %s at line %d:\n  got:  %q\n  want: %q\n(run with -update to regenerate)",
						n, golden, i+1, g, w)
				}
			}
		})
	}
}
