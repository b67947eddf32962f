package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"loadimb/internal/cfd"
	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// The observed-cfd workload: the cfd solver runs alternately detached and
// with an IngestClient (cfdsim -emit's defaults) streaming over one unix
// socket to a daemon-config collector, which feeds a tier-1 federator and
// the root. Each run is shifted onto one continuous timeline.
//
// Every run adds tens of windows to the timeline, and the root's cost
// grows with them: after cfdEpisode rounds a fresh topology replaces the
// old one, so the history a round sees does not depend on how many rounds
// the host managed before it.
func cfdConfig() cfd.Config {
	return cfd.Config{Procs: 16, GridX: 64, GridY: 64, Iterations: 100}
}

const (
	cfdLeaf    = "cfd"
	cfdEpisode = 8
)

type cfdEnv struct {
	col    *monitor.Collector
	ing    *monitor.IngestServer
	pipe   *Pipeline
	sock   string
	offset float64 // start of the next run on the shared timeline
	truth  *Truth
}

func (e *cfdEnv) Close() {
	if e.ing != nil {
		_ = e.ing.Close()
	}
	if e.pipe != nil {
		e.pipe.Close()
	}
}

// span is the end of a run's last event.
func span(lg *trace.Log) float64 {
	end := 0.0
	lg.Each(func(ev trace.Event) { end = max(end, ev.End) })
	return end
}

// wiredRun runs the solver with an IngestClient as its sink, shifted to
// the env's offset, and returns the result and the time from the start of
// the run until the client had flushed and closed. With timed set, the
// sink is wrapped to measure the time the ranks spend inside it.
func (e *cfdEnv) wiredRun(timed *timedSink) (*cfd.Result, time.Duration, error) {
	cl, err := monitor.DialIngest("unix:"+e.sock, monitor.ClientOptions{})
	if err != nil {
		return nil, 0, err
	}
	cfg := cfdConfig()
	cfg.Sink = trace.ShiftSink(cl, e.offset)
	if timed != nil {
		timed.next = cfg.Sink
		cfg.Sink = timed
	}
	t0 := time.Now()
	res, err := cfd.Run(cfg)
	tc := time.Now()
	cerr := cl.Close()
	if timed != nil {
		timed.ns.Add(int64(time.Since(tc)))
	}
	d := time.Since(t0)
	if err == nil {
		err = cerr
	}
	return res, d, err
}

// account adds a finished run's own event log, shifted as its sink
// shifted it, to the ground truth and advances the timeline.
func (e *cfdEnv) account(res *cfd.Result) {
	off := e.offset
	res.Log.Each(func(ev trace.Event) {
		ev.Start += off
		ev.End += off
		e.truth.Add(ev, cfdLeaf+"/", 0)
	})
	e.offset += span(res.Log)
}

func setupCfd(ctx context.Context, tr *Tracer) (*cfdEnv, error) {
	e := &cfdEnv{truth: NewTruth()}
	e.col = newDaemonCollector()
	e.ing = monitor.NewIngestServer(e.col, monitor.IngestOptions{})
	var err error
	if e.sock, err = socketPath("cfd"); err != nil {
		e.Close()
		return nil, err
	}
	if _, err := e.ing.Listen("unix:" + e.sock); err != nil {
		e.Close()
		return nil, err
	}
	e.pipe, err = NewPipeline([]*monitor.Collector{e.col},
		[]http.Handler{serve.NewHandler(e.col, serve.WithIngest(e.ing))}, []string{cfdLeaf}, 1, tr)
	if err != nil {
		e.Close()
		return nil, err
	}
	// One wired run is the history the cold sync carries.
	res, _, err := e.wiredRun(nil)
	if err != nil {
		e.Close()
		return nil, err
	}
	e.account(res)
	if err := waitEvents(e.col, e.truth.Events, 60*time.Second); err != nil {
		e.Close()
		return nil, err
	}
	snap, err := e.pipe.Scrape(ctx, 0, -1)
	if err != nil {
		e.Close()
		return nil, err
	}
	if got := windowEvents(snap); got != e.truth.Incidences {
		e.Close()
		return nil, fmt.Errorf("cfd cold sync: root counts %d window events, sent %d", got, e.truth.Incidences)
	}
	return e, nil
}

func runCfd(ctx context.Context, _ uint64, seconds float64, tr *Tracer) (*Measure, error) {
	cfg := cfdConfig()
	m := &Measure{Tracer: tr, Params: map[string]any{
		"procs": cfg.Procs, "grid": fmt.Sprintf("%dx%d", cfg.GridX, cfg.GridY), "iterations": cfg.Iterations,
		"client": "IngestClient defaults (batch 1024, flush 100ms)", "episode_rounds": cfdEpisode,
	}}
	e, err := repeatSetup(m, func() (*cfdEnv, error) { return setupCfd(ctx, tr) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil {
			e.Close()
		}
	}()
	m.Pipe = e.pipe
	stalls0 := ingestCounter(e.ing, monitor.MetricIngestStallsTotal)
	frames0 := ingestCounter(e.ing, monitor.MetricIngestBatchesTotal)
	// endEpisode reads the heap the topology holds after its rounds, when
	// it holds the most history, gates its root and adds its ingest
	// counters.
	endEpisode := func() {
		runtime.GC()
		m.HeapMB = max(m.HeapMB, liveHeapMB())
		if err := Gate(e.pipe.Root.Snapshot(), e.truth); err != nil && m.GateErr == nil {
			m.GateErr = err
		}
		m.Stalls += ingestCounter(e.ing, monitor.MetricIngestStallsTotal) - stalls0
		m.Frames += ingestCounter(e.ing, monitor.MetricIngestBatchesTotal) - frames0
	}

	// The timed phase starts from a collected heap.
	runtime.GC()
	tr.startTimed()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	rounds := 0
	for time.Now().Before(deadline) {
		if rounds > 0 && rounds%cfdEpisode == 0 {
			// The old topology goes before the new one is built, so the
			// heap never holds both; the new one's cold sync is not
			// counted.
			tr.stopTimed()
			endEpisode()
			c := e.pipe.Counters
			e.Close()
			e, m.Pipe = nil, nil
			if e, err = setupCfd(ctx, tr); err != nil {
				return nil, err
			}
			e.pipe.Counters, m.Pipe = c, e.pipe
			stalls0 = ingestCounter(e.ing, monitor.MetricIngestStallsTotal)
			frames0 = ingestCounter(e.ing, monitor.MetricIngestBatchesTotal)
			tr.startTimed()
		}
		if rounds%4 == 0 {
			m.probe()
		}
		round := rounds + 1
		rs := tr.Begin("round", -1, round)
		t0 := time.Now()
		det := cfdConfig()
		detRes, err := cfd.Run(det)
		if err != nil {
			return nil, err
		}
		detached := time.Since(t0)
		tr.Record("cfd.detached", t0, detached, round, int64(detRes.Log.Len()))
		m.Detached = append(m.Detached, ms(detached))

		// The root must account for what the detached run produced: the
		// solver is deterministic, so the wired run sends the same events.
		want := NewTruth()
		detRes.Log.Each(func(ev trace.Event) {
			ev.Start += e.offset
			ev.End += e.offset
			want.Add(ev, "", 0)
		})
		received0 := e.col.Events()
		incid0 := e.truth.Incidences

		var timed *timedSink
		if tr != nil {
			timed = &timedSink{}
		}
		cpu0 := cpuTime()
		t1 := time.Now()
		res, wired, err := e.wiredRun(timed)
		if err != nil {
			return nil, err
		}
		m.Wired = append(m.Wired, ms(wired))
		tr.Record("cfd.wired", t1, wired, round, int64(res.Log.Len()))
		if timed != nil {
			m.Intake += time.Duration(timed.ns.Load())
			m.IntakeEvents += timed.n.Load()
		}
		handed := time.Now()
		m.DecodeBacklog = append(m.DecodeBacklog, float64(received0+want.Events)-float64(e.col.Events()))
		failed := waitEvents(e.col, received0+want.Events, 30*time.Second) != nil
		snap, err := e.pipe.Scrape(ctx, round, rs)
		visible := time.Now()
		failed = failed || err != nil || windowEvents(snap) != incid0+want.Incidences
		if !failed {
			m.Visible = append(m.Visible, ms(visible.Sub(handed)))
		}
		m.Rate = append(m.Rate, float64(res.Log.Len())/visible.Sub(t1).Seconds())
		m.CPU += cpuTime() - cpu0
		m.Events += uint64(res.Log.Len())
		e.account(res)

		d, n, err := e.pipe.Metrics(ctx, round, rs)
		tr.End(rs, 0)
		if err != nil {
			failed = true
		} else {
			m.Metrics = append(m.Metrics, ms(d))
			m.MetricsB = append(m.MetricsB, float64(n))
		}
		if failed {
			m.Failed++
		}
		rounds++
	}
	tr.stopTimed()
	m.Attempted = uint64(rounds)
	endEpisode()
	m.Frames /= float64(rounds)

	// The codec replays one run's events in the client's 1024-event frames.
	detRes, err := cfd.Run(cfdConfig())
	if err != nil {
		return nil, err
	}
	m.Codec, err = replayCodec(chunk(detRes.Log.Events(), 1024), 5)
	return m, err
}
