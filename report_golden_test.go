package vdirect

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
)

var updateReportGolden = flag.Bool("update-golden", false,
	"rewrite testdata/report_small_golden.json from the current report")

// TestReportSmallGolden pins the whole small-scale report as observed:
// a telemetry run is active and walkprof samples 1 in 64 misses, and
// the SHA-256 of every section's Text and CSV, and of the written
// sample file, must equal the checked-in digests. Observation must not
// change what is simulated, so a change to the observers alone leaves
// this file as it is. After an intended behaviour change, regenerate
// with
//
//	go test . -run TestReportSmallGolden -update-golden
func TestReportSmallGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at small scale")
	}
	run := telemetry.StartRun("report-golden", nil, false)
	t.Cleanup(run.Stop)
	prof := walkprof.Enable(64)
	t.Cleanup(prof.Stop)

	rep, err := ReproduceAllOpts(ScaleSmall, Options{Fig13Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	got := make(map[string]string)
	for _, s := range rep.Sections {
		got[s.Name+"/text"] = digest([]byte(s.Text))
		got[s.Name+"/csv"] = digest([]byte(s.CSV))
	}
	d := prof.Snapshot()
	if d.NumSamples() == 0 {
		t.Fatal("walkprof collected no samples")
	}
	var samples bytes.Buffer
	if err := walkprof.Write(&samples, d); err != nil {
		t.Fatal(err)
	}
	got["walkprof/samples"] = digest(samples.Bytes())

	path := filepath.Join("testdata", "report_small_golden.json")
	if *updateReportGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d digests, report has %d", len(want), len(got))
	}
}
