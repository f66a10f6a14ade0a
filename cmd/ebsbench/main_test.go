package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lunasolar/internal/stats"
)

// TestWriteMetrics covers the -metrics-out export in both formats: the
// per-experiment registries (nil for experiments without telemetry) merge
// into a non-empty file, and the JSON form carries the registry schema.
func TestWriteMetrics(t *testing.T) {
	reg := stats.NewRegistry()
	reg.AddCounter("fig6/solar/acks", 3)
	regs := []*stats.Registry{reg, nil}
	for _, format := range []string{"json", "openmetrics"} {
		path := filepath.Join(t.TempDir(), "METRICS")
		if err := writeMetrics(path, format, regs); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			t.Fatalf("%s export is empty", format)
		}
		if format != "json" {
			continue
		}
		var doc struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("export is not valid JSON: %v", err)
		}
		if doc.Schema != stats.SchemaVersion {
			t.Fatalf("schema = %q, want %q", doc.Schema, stats.SchemaVersion)
		}
	}
}
