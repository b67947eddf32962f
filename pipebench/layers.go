package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the pipeline sees; every workload
// reports all of them. The 95th percentile of visibility is printed but
// not among them: on a shared 2-core host it swings with the host's speed
// about 2.6 times as much as the median does (the rounds in its tail are
// those a garbage collection of the one shared heap overlaps), wider
// than any bound a change could be held to.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"cpu_s_per_mevent", "s"},
	{"visible_p50_ms", "ms"},
	{"metrics_p50_ms", "ms"},
	{"observer_slowdown", "ratio"},
	{"producer_wired_ms", "ms"},
	{"heap_peak_mb", "MiB"},
}

// layerDef is a per-layer metric with the end-to-end metric it is
// predicted to move on each workload; a workload missing from Moves
// bypasses the layer, and the prediction there is no change.
type layerDef struct {
	Name, Unit string
	Moves      map[string]string
}

const (
	wIngest = "ingest"
	wFleet  = "fleet"
	wCfd    = "observed-cfd"
)

// cpuBuckets are the packages the CPU profile's self time is grouped by.
var cpuBuckets = []string{
	"tracefmt", "monitor", "temporal", "stats", "trace", "federate", "serve", "core",
	"diagnose", "cluster", "sim", "mpi", "cfd", "net_http", "net", "syscall",
	"runtime_gc", "runtime", "bench", "other",
}

// layers lists every per-layer metric in report order.
var layers = func() []layerDef {
	ingestRate := "events_per_s, cpu_s_per_mevent"
	l := []layerDef{
		{"monitor.intake_ns_per_event", "ns", map[string]string{wIngest: ingestRate, wFleet: "visible_p50_ms", wCfd: "observer_slowdown"}},
		{"tracefmt.encode_ns_per_event", "ns", map[string]string{wIngest: ingestRate, wCfd: "observer_slowdown"}},
		{"tracefmt.decode_ns_per_event", "ns", map[string]string{wIngest: ingestRate, wCfd: "visible_p50_ms"}},
		{"tracefmt.wire_bytes_per_event", "B", map[string]string{wIngest: "events_per_s", wCfd: "observer_slowdown"}},
		{"monitor.ingest.stalls", "count", map[string]string{wIngest: "events_per_s", wCfd: "observer_slowdown"}},
		{"monitor.ingest.decode_backlog_events", "count", map[string]string{wIngest: "events_per_s", wCfd: "visible_p50_ms"}},
		{"monitor.ingest.frames_per_round", "count", map[string]string{wIngest: "events_per_s", wCfd: "observer_slowdown"}},
		{"monitor.ring_backlog_events", "count", map[string]string{wIngest: "events_per_s", wCfd: "visible_p50_ms"}},
		{"monitor.snapshot_ms", "ms", map[string]string{wIngest: "events_per_s", wFleet: "visible_p50_ms", wCfd: "visible_p50_ms"}},
		{"federate.tier1_scrape_ms", "ms", map[string]string{wFleet: "visible_p50_ms", wCfd: "visible_p50_ms"}},
		{"federate.tier1_merge_ms", "ms", map[string]string{wFleet: "visible_p50_ms", wCfd: "visible_p50_ms"}},
		{"federate.root_scrape_ms", "ms", map[string]string{wFleet: "visible_p50_ms", wCfd: "visible_p50_ms"}},
		{"federate.root_merge_ms", "ms", map[string]string{wFleet: "visible_p50_ms", wCfd: "visible_p50_ms"}},
		{"federate.tier1_bytes_per_round", "B", map[string]string{wFleet: "visible_p50_ms"}},
		{"federate.root_bytes_per_round", "B", map[string]string{wFleet: "visible_p50_ms"}},
		{"federate.delta_share", "ratio", map[string]string{wFleet: "visible_p50_ms"}},
		{"federate.scrape_failures", "count", map[string]string{wIngest: "failed", wFleet: "failed", wCfd: "failed"}},
		{"core.views_ms", "ms", map[string]string{wIngest: "metrics_p50_ms", wFleet: "metrics_p50_ms", wCfd: "metrics_p50_ms"}},
		{"diagnose.root_ms", "ms", map[string]string{wIngest: "metrics_p50_ms", wFleet: "metrics_p50_ms", wCfd: "metrics_p50_ms"}},
		{"serve.metrics_render_ms", "ms", map[string]string{wIngest: "metrics_p50_ms", wFleet: "metrics_p50_ms", wCfd: "metrics_p50_ms"}},
		{"serve.metrics_bytes", "B", map[string]string{wIngest: "metrics_p50_ms", wFleet: "metrics_p50_ms", wCfd: "metrics_p50_ms"}},
		{"producer.detached_ms", "ms", map[string]string{wIngest: "observer_slowdown", wFleet: "observer_slowdown", wCfd: "producer_wired_ms"}},
	}
	for _, b := range cpuBuckets {
		moves := map[string]string{}
		switch b {
		case "tracefmt", "monitor", "temporal", "stats", "trace", "syscall", "runtime_gc", "runtime", "bench":
			moves[wIngest] = ingestRate
		}
		switch b {
		case "federate", "serve", "tracefmt", "temporal", "core", "diagnose", "cluster", "monitor", "trace", "stats", "net_http", "net", "runtime_gc":
			moves[wFleet] = "visible_p50_ms or metrics_p50_ms"
		}
		switch b {
		case "sim", "mpi", "cfd", "monitor", "tracefmt", "temporal", "runtime_gc", "syscall":
			moves[wCfd] = "observer_slowdown"
		}
		l = append(l, layerDef{"cpu." + b + "_share", "ratio", moves})
	}
	for _, e := range endToEnd {
		l = append(l, layerDef{"trace_overhead." + e.Name, e.Unit, map[string]string{wIngest: e.Name, wFleet: e.Name, wCfd: e.Name}})
	}
	return l
}()

// medianSpanMs is the median duration of the named spans in ms.
func medianSpanMs(sum map[string]spanStats, name string) float64 {
	return ms(sum[name].medianD)
}

// perLayer derives the per-layer metrics of a traced pass; overhead adds
// the trace_overhead rows (traced minus untraced end-to-end values).
func perLayer(m *Measure, overhead map[string]float64) map[string]float64 {
	sum := m.Tracer.Summary()
	p := m.Pipe
	rounds := float64(max(1, p.Rounds))
	out := map[string]float64{
		"tracefmt.encode_ns_per_event":         m.Codec.EncodeNs,
		"tracefmt.decode_ns_per_event":         m.Codec.DecodeNs,
		"tracefmt.wire_bytes_per_event":        m.Codec.BytesPerEvent,
		"monitor.ingest.stalls":                m.Stalls,
		"monitor.ingest.decode_backlog_events": median(m.DecodeBacklog),
		"monitor.ingest.frames_per_round":      m.Frames,
		"monitor.ring_backlog_events":          median(p.ringBacklog),
		"monitor.snapshot_ms":                  medianSpanMs(sum, "monitor.snapshot"),
		"federate.tier1_scrape_ms":             medianSpanMs(sum, "federate.tier1_scrape"),
		"federate.tier1_merge_ms":              medianSpanMs(sum, "federate.tier1_merge"),
		"federate.root_scrape_ms":              medianSpanMs(sum, "federate.root_scrape"),
		"federate.root_merge_ms":               medianSpanMs(sum, "federate.root_merge"),
		"federate.tier1_bytes_per_round":       float64(p.tier1Bytes) / rounds,
		"federate.root_bytes_per_round":        float64(p.rootBytes) / rounds,
		"federate.delta_share":                 float64(p.deltaScrapes) / float64(max(1, p.attempted)),
		"federate.scrape_failures":             float64(p.failures),
		"core.views_ms":                        medianSpanMs(sum, "core.views"),
		"diagnose.root_ms":                     medianSpanMs(sum, "diagnose.root"),
		"serve.metrics_render_ms":              medianSpanMs(sum, "serve.metrics_render"),
		"serve.metrics_bytes":                  median(m.MetricsB),
		"producer.detached_ms":                 median(m.Detached),
	}
	if m.IntakeEvents > 0 {
		out["monitor.intake_ns_per_event"] = float64(m.Intake) / float64(m.IntakeEvents)
	}
	other := 0.0
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
		out["cpu."+b+"_share"] = m.Shares[b]
	}
	for b, v := range m.Shares {
		if !known[b] {
			other += v
		}
	}
	out["cpu.other_share"] += other
	for name, v := range overhead {
		out["trace_overhead."+name] = v
	}
	return out
}

// printTable writes rows of metric, value, unit and, when moves is set,
// the end-to-end metric the row is predicted to move on the workload.
func printTable(w io.Writer, workload string, values map[string]float64, defs []layerDef) {
	fmt.Fprintf(w, "per-layer metrics, workload %s (traced run):\n", workload)
	fmt.Fprintf(w, "  %-40s %16s %-6s  %s\n", "metric", "value", "unit", "predicted to move")
	for _, d := range defs {
		moves := d.Moves[workload]
		if moves == "" {
			moves = "- (layer bypassed: no change predicted)"
		}
		fmt.Fprintf(w, "  %-40s %16.6g %-6s  %s\n", d.Name, values[d.Name], d.Unit, moves)
	}
}

// printEndToEnd writes the end-to-end metrics of m, with the sample
// counts behind them, and the 95th percentile of visibility.
func printEndToEnd(w io.Writer, workload string, values map[string]float64, m *Measure) {
	fmt.Fprintf(w, "end-to-end metrics, workload %s:\n", workload)
	samples := map[string]int{
		"setup_s":           len(m.Setup),
		"events_per_s":      len(m.Rate),
		"visible_p50_ms":    len(m.Visible),
		"metrics_p50_ms":    len(m.Metrics),
		"observer_slowdown": len(m.Wired),
		"producer_wired_ms": len(m.Wired),
	}
	raw := m.rawEndToEnd()
	for _, d := range endToEnd {
		note := ""
		if n, ok := samples[d.Name]; ok {
			note = fmt.Sprintf("(n=%d)", n)
		}
		fmt.Fprintf(w, "  %-20s %16.6g %-6s raw %-12.6g %s\n", d.Name, values[d.Name], d.Unit, raw[d.Name], note)
	}
	fmt.Fprintf(w, "  %-20s %16.6g %-6s raw %-12.6g (n=%d; printed only)\n", "visible_p95_ms",
		quantile(m.Visible, 0.95)*m.speed(), "ms", quantile(m.Visible, 0.95), len(m.Visible))
	fmt.Fprintf(w, "  host speed: reference kernel %.4g ms (median of %d), nominal %g ms: times scaled by %.4g\n",
		median(m.Ref), len(m.Ref), refNominalMs, m.speed())
}

// spanNames lists the recorded span names, for the report.
func spanNames(sum map[string]spanStats) string {
	var names []string
	for n, s := range sum {
		names = append(names, fmt.Sprintf("%s x%d (%.3g ms total)", n, s.count, ms(s.total)))
	}
	sort.Strings(names)
	return strings.Join(names, "; ")
}
