// Command pipebench is the end-to-end benchmark of the live imbalance
// pipeline: producer -> LIWP -> collector fold -> snapshot -> /delta ->
// two federation tiers -> root /metrics, all with the configuration the
// imbamon and imbafed daemons ship with, in one process.
//
//	pipebench --workload ingest|fleet|observed-cfd --seed N --seconds S --trace 0|1
//	pipebench compare PARENT.log CHANGE.log
//	pipebench spread RUNS.log
//
// A run prints a human-readable report, a "pipebench-record" line with
// the host and run block, and as its last line the result JSON. With
// --trace 1 it measures the workload twice, untraced then traced with
// spans and a CPU profile, and reports the per-layer metrics and the
// tracing overhead. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare", "spread":
			if err := runCompare(os.Stdout, os.Args[1], os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "pipebench:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

// setupRepeats is how many times a run builds its topology; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 9

// repeatSetup builds the workload's environment setupRepeats times,
// recording each set-up time, and keeps the last.
func repeatSetup[E interface{ Close() }](m *Measure, setup func() (E, error)) (E, error) {
	var e E
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			e.Close()
		}
		// Each set-up starts from a collected heap, not from the garbage
		// of the one before.
		runtime.GC()
		m.probe()
		t0 := time.Now()
		var err error
		if e, err = setup(); err != nil {
			return e, fmt.Errorf("set-up: %w", err)
		}
		m.Setup = append(m.Setup, time.Since(t0).Seconds())
	}
	return e, nil
}

type runFunc func(ctx context.Context, seed uint64, seconds float64, tr *Tracer) (*Measure, error)

var workloads = map[string]runFunc{
	wIngest: runIngest,
	wFleet:  runFleet,
	wCfd:    runCfd,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a run's output.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Record is the "pipebench-record" line: the result with its host and
// run block, the input of the comparator.
type Record struct {
	Run struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Seconds  float64        `json:"seconds"`
		Trace    int            `json:"trace"`
		Params   map[string]any `json:"params"`
		Errors   []string       `json:"errors,omitempty"`
		// RefMs is the reference kernel's median time and Raw the
		// end-to-end metrics before scaling, of the untraced pass.
		RefMs float64            `json:"ref_ms"`
		Raw   map[string]float64 `json:"raw"`
	} `json:"run"`
	Host   Host   `json:"host"`
	Result Result `json:"result"`
}

const recordPrefix = "pipebench-record "

func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: ingest, fleet or observed-cfd")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "seconds the run measures")
	traced := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ingest, fleet or observed-cfd)", *workload)
	}
	if !(*seconds > 0) || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		return errors.New("want --seconds > 0, --trace 0|1 and no extra arguments")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	ctx := context.Background()

	rec := Record{Host: hostInfo(root)}
	rec.Run.Workload, rec.Run.Seed, rec.Run.Seconds, rec.Run.Trace = *workload, *seed, *seconds, *traced
	var measures []*Measure
	var metrics map[string]float64
	var defs []metricDef
	if *traced == 0 {
		m, err := fn(ctx, *seed, *seconds, nil)
		if err != nil {
			return err
		}
		measures = append(measures, m)
		metrics = m.EndToEnd()
		defs = endToEnd
		printEndToEnd(stdout, *workload, metrics, m)
	} else {
		// Each pass gets half the time: untraced first, then traced with
		// spans and a CPU profile of its timed phase.
		plain, err := fn(ctx, *seed, *seconds/2, nil)
		if err != nil {
			return err
		}
		// The untraced pass's closed topology must not stay reachable and
		// count in the traced pass's heap.
		plain.Pipe = nil
		tr := NewTracer()
		tr.profile = true
		m, err := fn(ctx, *seed, *seconds/2, tr)
		if err != nil {
			return err
		}
		measures = append(measures, plain, m)
		var samples []profSample
		for _, p := range tr.profs {
			s, err := parseCPUProfile(p.Bytes())
			if err != nil {
				return fmt.Errorf("reading the CPU profile: %w", err)
			}
			samples = append(samples, s...)
		}
		m.Shares = cpuShares(samples)
		untraced, withTrace := plain.EndToEnd(), m.EndToEnd()
		overhead := map[string]float64{}
		for name, v := range withTrace {
			overhead[name] = v - untraced[name]
		}
		metrics = perLayer(m, overhead)
		for _, l := range layers {
			defs = append(defs, metricDef{l.Name, l.Unit})
		}
		printEndToEnd(stdout, *workload+" (untraced pass)", untraced, plain)
		printEndToEnd(stdout, *workload+" (traced pass)", withTrace, m)
		printTable(stdout, *workload, metrics, layers)
		fmt.Fprint(stdout, layerNotes)
		fmt.Fprintf(stdout, "spans: %s\n", spanNames(tr.Summary()))
		if path, err := writeTrace(*workload, *seed, tr); err != nil {
			fmt.Fprintf(stdout, "writing the trace: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s.json, CPU profiles (%d) to %s[.N].pprof\n", path, len(tr.profs), path)
		}
	}

	rec.Run.RefMs, rec.Run.Raw = median(measures[0].Ref), measures[0].rawEndToEnd()
	res := Result{Correct: true, Metrics: map[string]metricValue{}}
	for _, m := range measures {
		res.Attempted += m.Attempted
		res.Failed += m.Failed
		if m.GateErr != nil {
			res.Correct = false
			rec.Run.Errors = append(rec.Run.Errors, m.GateErr.Error())
		}
		rec.Run.Params = m.Params
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, d := range defs {
		v := metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			rec.Run.Errors = append(rec.Run.Errors, fmt.Sprintf("metric %s is not finite", d.Name))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	fmt.Fprintf(stdout, "ground-truth gate: %v; attempted %d, failed %d, error_rate %.6g\n",
		gateWord(res.Correct), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, e := range rec.Run.Errors {
		fmt.Fprintf(stdout, "  error: %s\n", e)
	}
	rec.Result = res
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n", recordPrefix, line)
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return nil
}

func gateWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// layerNotes maps metric names of the benchmark's specification that
// every workload could not report as such onto the rows above.
const layerNotes = `notes: every workload reports every row, so workload-specific names are merged:
  monitor.client.send_ns_per_event (ingest), monitor.client.record_ns_per_event (observed-cfd)
    and monitor.record_us (fleet) are monitor.intake_ns_per_event;
  monitor.leaf_snapshot_ms is monitor.snapshot_ms; monitor.client.frames_per_run is
    monitor.ingest.frames_per_round; cfd.detached_ms is producer.detached_ms;
  tracefmt.wire_bytes_per_event comes from the codec replay of the run's batches, whose
    frames are the ones the client sent (handshake included);
  error_rate is the result's failed/attempted, since a metric must never read 0.
`

// writeTrace writes the traced pass's spans and CPU profiles under the
// checkout's .bench_build directory and returns the path stem: the
// profiles go to stem.pprof, stem.1.pprof and so on.
func writeTrace(workload string, seed uint64, tr *Tracer) (string, error) {
	dir := filepath.Join(".bench_build", "pipebench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stem := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d", workload, seed))
	if err := tr.WriteFile(stem + ".json"); err != nil {
		return "", err
	}
	for i, p := range tr.profs {
		name := stem + ".pprof"
		if i > 0 {
			name = fmt.Sprintf("%s.%d.pprof", stem, i)
		}
		if err := os.WriteFile(name, p.Bytes(), 0o644); err != nil {
			return "", err
		}
	}
	return stem, nil
}

// startTimed and stopTimed bracket a stretch of a workload's timed phase:
// a traced pass profiles the CPU during each. Workloads that replace their
// topology stop between stretches, so set-up does not count.
func (t *Tracer) startTimed() {
	if t != nil && t.profile {
		// It fails only while another profile runs, and nothing else in
		// the process profiles; an empty profile then fails the parse.
		b := &bytes.Buffer{}
		t.profs = append(t.profs, b)
		_ = pprof.StartCPUProfile(b)
	}
}

func (t *Tracer) stopTimed() {
	if t != nil && t.profile {
		pprof.StopCPUProfile()
	}
}
