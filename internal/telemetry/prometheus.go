// Prometheus text exposition for the registry, served by the -listen
// observability endpoint (cli.go). Hand-rolled on purpose: the format
// is a few lines per instrument and the repo takes no dependencies.

package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// promName sanitizes a registry metric name into the Prometheus
// namespace: dots and other non-identifier characters become
// underscores, and everything is prefixed "vdirect_".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("vdirect_")
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as-is. Output is sorted
// by metric name, so identical snapshots render byte-identically.
func (s Snapshot) PrometheusText() string {
	var b strings.Builder

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n])
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n])
	}
	return b.String()
}
