package main

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// Measure is what one pass of a workload recorded: the raw material of
// the end-to-end and per-layer metrics.
type Measure struct {
	Setup []float64 // seconds per set-up
	// Events is the number of events the timed phase made visible at the
	// root, over CPU of process time; Rate is the events per second of
	// each round.
	Events   uint64
	CPU      time.Duration
	Rate     []float64
	Visible  []float64 // ms from hand-off until the root accounts for it
	Metrics  []float64 // ms per root GET /metrics after the root changed
	MetricsB []float64 // bytes per root /metrics document
	// Wired and Detached are the producer's time per unit of work (an
	// ingest batch, a fleet round, a cfd run) with and without the
	// observer attached, in ms. An ingest wired sample is a round's mean
	// batch time: a producer blocked by backpressure pays in its slow
	// batches, which a median over batches would not see.
	Wired, Detached []float64
	HeapMB          float64
	// Ref holds the reference kernel's times in ms (see hostspeed.go).
	Ref []float64
	// Attempted and Failed count the workload's operations.
	Attempted, Failed uint64
	GateErr           error

	// Intake is the time spent inside the producer-side monitor calls
	// (IngestClient or Collector.RecordBatch) over IntakeEvents events.
	Intake       time.Duration
	IntakeEvents uint64
	// Ingest server counters over the timed phase; zero without one.
	Stalls, Frames float64
	DecodeBacklog  []float64
	Pipe           *Pipeline
	Codec          codecResult
	Tracer         *Tracer
	Shares         map[string]float64
	Params         map[string]any
}

// EndToEnd derives the end-to-end metrics, scaled to the reference host.
func (m *Measure) EndToEnd() map[string]float64 { return m.scaled(m.rawEndToEnd()) }

// rawEndToEnd derives the end-to-end metrics as the host ran them.
func (m *Measure) rawEndToEnd() map[string]float64 {
	mev := float64(m.Events) / 1e6
	out := map[string]float64{
		"setup_s":           median(m.Setup),
		"events_per_s":      median(m.Rate),
		"cpu_s_per_mevent":  m.CPU.Seconds() / mev,
		"visible_p50_ms":    quantile(m.Visible, 0.5),
		"metrics_p50_ms":    quantile(m.Metrics, 0.5),
		"observer_slowdown": slowdown(m.Wired, m.Detached),
		"producer_wired_ms": median(m.Wired),
		"heap_peak_mb":      m.HeapMB,
	}
	return out
}

// slowdown is the median over units of the producer's time with the
// observer over its time without, each pair measured in the same round.
func slowdown(wired, detached []float64) float64 {
	r := make([]float64, min(len(wired), len(detached)))
	for i := range r {
		r[i] = wired[i] / detached[i]
	}
	return median(r)
}

// codecResult is the LIWP codec replayed over a run's own batches.
type codecResult struct {
	EncodeNs, DecodeNs, BytesPerEvent float64
}

// replayCodec encodes the batches with a fresh WireEncoder (one frame
// per batch, as the producer's client sent them) and decodes the stream
// back, reps times; it reports median nanoseconds per event and the wire
// bytes per event, handshake included.
func replayCodec(batches [][]trace.Event, reps int) (codecResult, error) {
	var events int
	for _, b := range batches {
		events += len(b)
	}
	var encs, decs []float64
	var size int
	out := make([]trace.Event, 0, tracefmt.MaxWireBatch)
	for r := 0; r < reps; r++ {
		var buf bytes.Buffer
		enc := tracefmt.NewWireEncoder(&buf)
		t0 := time.Now()
		for _, b := range batches {
			if err := enc.EncodeBatch(b); err != nil {
				return codecResult{}, err
			}
		}
		encs = append(encs, float64(time.Since(t0))/float64(events))
		size = buf.Len()
		dec := tracefmt.NewWireDecoder(bytes.NewReader(buf.Bytes()))
		t1 := time.Now()
		decoded := 0
		for {
			var err error
			out, err = dec.DecodeBatch(out[:0])
			if err == io.EOF {
				break
			}
			if err != nil {
				return codecResult{}, err
			}
			decoded += len(out)
		}
		decs = append(decs, float64(time.Since(t1))/float64(events))
		if decoded != events {
			return codecResult{}, io.ErrUnexpectedEOF
		}
	}
	return codecResult{EncodeNs: median(encs), DecodeNs: median(decs), BytesPerEvent: float64(size) / float64(events)}, nil
}

// chunk splits events into batches of at most n.
func chunk(events []trace.Event, n int) [][]trace.Event {
	var out [][]trace.Event
	for len(events) > n {
		out = append(out, events[:n])
		events = events[n:]
	}
	if len(events) > 0 {
		out = append(out, events)
	}
	return out
}

// ingestCounter reads one counter of an ingest server's exposition, the
// loadimb_ingest_* families /metrics serves.
func ingestCounter(s *monitor.IngestServer, name string) float64 {
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// timedSink measures the time a producer spends inside the sink it
// wraps; the benchmark's traced runs pass it where the program takes its
// observer. The program's ranks call it concurrently.
type timedSink struct {
	next trace.Sink
	ns   atomic.Int64
	n    atomic.Uint64
}

func (t *timedSink) Record(e trace.Event) {
	s := time.Now()
	t.next.Record(e)
	t.ns.Add(int64(time.Since(s)))
	t.n.Add(1)
}
