package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Add(40)
	c.Inc()
	c.Inc()
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("events") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("counters survive Reset: %v", s.Counters)
	}
}

func TestRunLifecycleAndInertSpan(t *testing.T) {
	if Active() {
		t.Fatal("telemetry active before StartRun")
	}
	// A span with no run is inert: End must not panic or record.
	StartSpan("cell", "orphan").End()

	run := StartRun("test", map[string]string{"k": "v"}, true)
	if !Active() || Current() != run {
		t.Fatal("run not active after StartRun")
	}
	sp := StartSpan("cell", "c1")
	sp.End()
	StartSpan("replay", "phase").End() // traced but not a manifest timing
	if got := run.Tracer().Len(); got != 2 {
		t.Errorf("tracer has %d events, want 2", got)
	}
	timings := run.Timings()
	if len(timings) != 1 || timings[0].Name != "c1" || timings[0].Cat != "cell" {
		t.Errorf("timings = %+v", timings)
	}
	run.Stop()
	if Active() {
		t.Fatal("still active after Stop")
	}
	run.Stop() // idempotent
}

func TestStartRunResetsDefaultRegistry(t *testing.T) {
	Default().Counter("leftover").Add(9)
	run := StartRun("test", nil, false)
	defer run.Stop()
	if s := Default().Snapshot(); len(s.Counters) != 0 {
		t.Errorf("default registry not reset: %v", s.Counters)
	}
}

func TestTracerWriteFile(t *testing.T) {
	run := StartRun("test", nil, true)
	defer run.Stop()
	StartSpan("cell", "work").End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run.Tracer().WriteFile(path, "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			TID  uint64  `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Errorf("missing process_name metadata event: %+v", doc.TraceEvents[0])
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "work" || ev.Ph != "X" || ev.TID == 0 {
		t.Errorf("span event = %+v", ev)
	}
}

func TestManifestRecordsErrorAndMetrics(t *testing.T) {
	run := StartRun("test", map[string]string{"scale": "small"}, false)
	defer run.Stop()
	Default().Counter("replay.events").Add(1000)
	StartSpan("section", "figure1").End()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := run.WriteManifest(path, os.ErrDeadlineExceeded); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Tool != "test" || m.Config["scale"] != "small" {
		t.Errorf("tool/config = %q/%v", m.Tool, m.Config)
	}
	if m.Error == "" {
		t.Error("failed run's manifest has no error")
	}
	if m.Build.GoVersion == "" || m.Host.CPUs <= 0 {
		t.Errorf("build/host not stamped: %+v %+v", m.Build, m.Host)
	}
	if m.Metrics.Counters["replay.events"] != 1000 {
		t.Errorf("metrics snapshot = %v", m.Metrics.Counters)
	}
	if len(m.Timings) != 1 || m.Timings[0].Name != "figure1" {
		t.Errorf("timings = %+v", m.Timings)
	}
}

func TestProgressAggregation(t *testing.T) {
	var got [][2]int
	p := NewProgress(func(done, total int) { got = append(got, [2]int{done, total}) })
	p.Expect(2)
	p.Finish()
	p.Finish()
	if d, tot := p.Snapshot(); d != 2 || tot != 2 {
		t.Errorf("snapshot = %d/%d", d, tot)
	}
	want := [][2]int{{0, 2}, {1, 2}, {2, 2}}
	if len(got) != len(want) {
		t.Fatalf("callbacks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("callback[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Nil Progress: all methods are no-ops.
	var nilP *Progress
	nilP.Expect(1)
	nilP.Finish()
	if d, tot := nilP.Snapshot(); d != 0 || tot != 0 {
		t.Error("nil Progress reported counts")
	}
}

func TestProgressPublishesGauges(t *testing.T) {
	run := StartRun("test", nil, false)
	defer run.Stop()
	p := NewProgress(nil)
	p.Expect(5)
	p.Finish()
	s := Default().Snapshot()
	if s.Gauges["sched.cells.total"] != 5 || s.Gauges["sched.cells.done"] != 1 {
		t.Errorf("gauges = %v", s.Gauges)
	}
}

func TestVersionString(t *testing.T) {
	v := VersionString("mytool")
	if !strings.HasPrefix(v, "mytool go1.") {
		t.Errorf("version = %q", v)
	}
}

func TestFlagsSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Trace:    filepath.Join(dir, "t.json"),
		Manifest: filepath.Join(dir, "m.json"),
	}
	if !f.Enabled() {
		t.Fatal("flags with paths not Enabled")
	}
	sess, err := f.Start("test", map[string]string{"a": "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !Active() {
		t.Fatal("session start did not activate telemetry")
	}
	StartSpan("cell", "c").End()
	if err := sess.Close(nil); err != nil {
		t.Fatal(err)
	}
	if Active() {
		t.Error("telemetry still active after Close")
	}
	for _, p := range []string{f.Trace, f.Manifest} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s not written: %v", p, err)
		}
	}
}

func TestInertSessionIsSafe(t *testing.T) {
	var f Flags
	if f.Enabled() {
		t.Fatal("zero Flags Enabled")
	}
	sess, err := f.Start("test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if Active() {
		t.Fatal("inert session activated telemetry")
	}
	if sess.Run() != nil {
		t.Error("inert session has a run")
	}
	if err := sess.Close(nil); err != nil {
		t.Error(err)
	}
	var nilSess *Session
	if err := nilSess.Close(nil); err != nil {
		t.Error(err)
	}
}
