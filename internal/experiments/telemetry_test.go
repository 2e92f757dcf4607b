// Telemetry non-interference: the observability layer may watch the
// simulation but never change it. These tests pin the two guarantees the
// harness documents — identical results with telemetry on vs off, and
// identical metric snapshots at any scheduler parallelism.

package experiments

import (
	"reflect"
	"testing"

	"vdirect/internal/sched"
	"vdirect/internal/telemetry"
)

func gridRows(t *testing.T, parallelism int) []Row {
	t.Helper()
	rows, err := RunGridOpts(sched.Config{Parallelism: parallelism},
		[]string{"gups", "graph500"}, []string{"4K", "4K+4K", "DD"}, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	baseline := gridRows(t, 1)

	run := telemetry.StartRun("test", nil, true)
	traced := gridRows(t, 4)
	run.Stop()

	if !reflect.DeepEqual(baseline, traced) {
		t.Fatal("rows differ between telemetry-off -j1 and telemetry-on -j4")
	}
	if run.Tracer().Len() == 0 {
		t.Error("no spans traced for a 6-cell grid")
	}
	if len(run.Timings()) != 6 {
		t.Errorf("manifest timings = %d, want 6 cells", len(run.Timings()))
	}
}

func TestTelemetryCollectsCellCounters(t *testing.T) {
	run := telemetry.StartRun("test", nil, false)
	defer run.Stop()
	gridRows(t, 2)
	s := telemetry.Default().Snapshot()

	if s.Counters["cells"] != 6 {
		t.Errorf("cells counter = %d, want 6", s.Counters["cells"])
	}
	if s.Counters["replay.events"] == 0 {
		t.Error("replay.events counter empty")
	}
	if s.Counters["accesses.measured"] == 0 {
		t.Error("accesses.measured counter empty")
	}
}

func TestTelemetrySnapshotDeterministicAcrossParallelism(t *testing.T) {
	snap := func(parallelism int) telemetry.Snapshot {
		run := telemetry.StartRun("test", nil, false)
		defer run.Stop()
		gridRows(t, parallelism)
		s := telemetry.Default().Snapshot()
		// Progress gauges are scheduler state, not simulation metrics;
		// they are identical here anyway, but exclude them on principle.
		s.Gauges = nil
		return s
	}
	if s1, s8 := snap(1), snap(8); !reflect.DeepEqual(s1, s8) {
		t.Errorf("metric snapshots differ between -j1 and -j8:\n%+v\nvs\n%+v", s1, s8)
	}
}
