package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestGoldenRead pins the v3 manifest shape: the checked-in
// golden document must parse, version-check, and surface its fields.
func TestManifestGoldenRead(t *testing.T) {
	m, err := ReadManifest(filepath.Join("testdata", "manifest_v3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("schema_version = %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	if m.Tool != "paperbench" || len(m.Args) != 4 {
		t.Errorf("tool/args = %q/%v", m.Tool, m.Args)
	}
	if m.Metrics.Counters["replay.events"] != 1000000 {
		t.Errorf("counters = %v", m.Metrics.Counters)
	}
	if len(m.Timings) != 1 || m.Timings[0].Cat != "cell" {
		t.Errorf("timings = %+v", m.Timings)
	}
}

// TestManifestRejectsUnknownVersions covers the failure shapes: a
// pre-versioning document (schema_version absent → 0), a v2 document
// (it carried histograms) and a document from a future writer.
func TestManifestRejectsUnknownVersions(t *testing.T) {
	v0 := []byte(`{"tool":"paperbench","args":[],"build":{"go_version":"go1.22.0"},` +
		`"host":{"os":"linux","arch":"amd64","cpus":1},"start":"2026-08-08T12:00:00Z",` +
		`"duration_ms":1,"metrics":{}}`)
	if _, err := ParseManifest(v0); err == nil {
		t.Error("pre-versioning manifest accepted")
	} else if !strings.Contains(err.Error(), "schema_version 0") {
		t.Errorf("v0 error does not name the version: %v", err)
	}
	v2 := []byte(`{"schema_version":2,"tool":"paperbench","metrics":{"histograms":{}}}`)
	if _, err := ParseManifest(v2); err == nil {
		t.Error("v2 manifest accepted")
	} else if !strings.Contains(err.Error(), "schema_version 2") {
		t.Errorf("v2 error does not name the version: %v", err)
	}
	future := []byte(`{"schema_version":99,"tool":"paperbench"}`)
	if _, err := ParseManifest(future); err == nil {
		t.Error("future manifest accepted")
	}
	if _, err := ParseManifest([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadManifest(filepath.Join("testdata", "does-not-exist.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestManifestWriteReadRoundtrip checks a freshly written manifest is
// readable by ReadManifest — writer and reader agree on the version.
func TestManifestWriteReadRoundtrip(t *testing.T) {
	r := StartRun("test-tool", map[string]string{"k": "v"}, false)
	Default().Counter("x").Add(3)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := r.WriteManifest(path, nil); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "test-tool" || m.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("roundtrip manifest = tool %q version %d", m.Tool, m.SchemaVersion)
	}
	if m.Metrics.Counters["x"] != 3 {
		t.Errorf("counters = %v", m.Metrics.Counters)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"schema_version": 3`) {
		t.Error("written manifest lacks schema_version field")
	}
}
