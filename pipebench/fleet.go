package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// The fleet workload: 16 in-process leaf collectors of 8 ranks each,
// preloaded with history, under 4 tier-1 federators of 4 leaves each and
// one root. A round records one step of every leaf's job, scrapes tier 1,
// scrapes the root and reads the root's /metrics.
//
// The root's cost grows with the history it holds, and every round adds
// a step to it. After fleetEpisode rounds (8 windows, an eighth of the
// preloaded history) a fresh topology replaces the old one, so the history
// a round sees does not depend on how many rounds the host managed before
// it.
var fleetShape = Shape{Procs: 8, Regions: 7, StepsPerWindow: 4, WindowsPerPhase: 8}

const (
	fleetLeaves  = 16
	fleetFanout  = 4
	fleetEpisode = 32
)

// fleetPreloadSteps is two schedule cycles (64 windows) of history.
func fleetPreloadSteps() int { return fleetShape.StepsPerWindow * fleetShape.WindowsPerPhase * 4 * 2 }

type fleetEnv struct {
	streams []*Stream
	names   []string
	leaves  []*monitor.Collector
	pipe    *Pipeline
}

func (e *fleetEnv) Close() {
	if e.pipe != nil {
		e.pipe.Close()
	}
}

// leafSeed derives leaf k's schedule seed from the workload seed.
func leafSeed(seed uint64, k int) uint64 { return seed*1000003 + uint64(k) }

func setupFleet(ctx context.Context, seed uint64, tr *Tracer) (*fleetEnv, error) {
	e := &fleetEnv{}
	var handlers []http.Handler
	var buf []trace.Event
	for k := 0; k < fleetLeaves; k++ {
		sc, err := NewSchedule(fleetShape, leafSeed(seed, k))
		if err != nil {
			return nil, err
		}
		st := sc.Stream(0, fleetShape.Procs)
		col := newDaemonCollector()
		for s := 0; s < fleetPreloadSteps(); s++ {
			buf = st.AppendStep(buf[:0], s)
			col.RecordBatch(buf)
		}
		e.streams = append(e.streams, st)
		e.names = append(e.names, fmt.Sprintf("job%02d", k))
		e.leaves = append(e.leaves, col)
		handlers = append(handlers, serve.NewHandler(col))
	}
	var err error
	e.pipe, err = NewPipeline(e.leaves, handlers, e.names, fleetFanout, tr)
	if err != nil {
		return nil, err
	}
	snap, err := e.pipe.Scrape(ctx, 0, -1)
	if err != nil {
		e.Close()
		return nil, err
	}
	want := uint64(fleetLeaves * fleetPreloadSteps() * e.streams[0].EventsPerStep())
	if got := windowEvents(snap); got != want {
		e.Close()
		return nil, fmt.Errorf("fleet cold sync: root counts %d events, sent %d", got, want)
	}
	return e, nil
}

func runFleet(ctx context.Context, seed uint64, seconds float64, tr *Tracer) (*Measure, error) {
	m := &Measure{Tracer: tr, Params: map[string]any{
		"leaves": fleetLeaves, "tier1": fleetLeaves / fleetFanout, "ranks_per_leaf": fleetShape.Procs,
		"regions": fleetShape.Regions, "activities": 4, "steps_per_window": fleetShape.StepsPerWindow,
		"windows_per_phase": fleetShape.WindowsPerPhase, "preload_steps": fleetPreloadSteps(),
		"episode_rounds": fleetEpisode,
	}}
	e, err := repeatSetup(m, func() (*fleetEnv, error) { return setupFleet(ctx, seed, tr) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil {
			e.Close()
		}
	}()
	m.Pipe = e.pipe
	perRound := uint64(fleetLeaves * e.streams[0].EventsPerStep())
	bufs := make([][]trace.Event, fleetLeaves)
	// endEpisode reads the heap the topology holds after its rounds, when
	// it holds the most history, and gates its root.
	endEpisode := func(rounds int) {
		runtime.GC()
		m.HeapMB = max(m.HeapMB, liveHeapMB())
		truth := NewTruth()
		for k, st := range e.streams {
			st.AddTo(truth, 0, fleetPreloadSteps()+rounds, e.names[k]+"/", k*fleetShape.Procs)
		}
		if err := Gate(e.pipe.Root.Snapshot(), truth); err != nil && m.GateErr == nil {
			m.GateErr = err
		}
	}

	// The timed phase starts from a collected heap.
	runtime.GC()
	tr.startTimed()
	cpu0 := cpuTime()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	rounds, episode := 0, 0 // rounds in all, and in this topology
	for time.Now().Before(deadline) {
		if episode == fleetEpisode {
			// The old topology goes before the new one is built, so the
			// heap never holds both; neither the set-up nor the new cold
			// sync is counted.
			m.CPU += cpuTime() - cpu0
			tr.stopTimed()
			endEpisode(episode)
			c := e.pipe.Counters
			e.Close()
			e, m.Pipe = nil, nil
			if e, err = setupFleet(ctx, seed, tr); err != nil {
				return nil, err
			}
			e.pipe.Counters, m.Pipe = c, e.pipe
			episode = 0
			tr.startTimed()
			cpu0 = cpuTime()
		}
		if rounds%4 == 0 {
			// The probe's CPU time is not the pipeline's.
			c := cpuTime()
			m.probe()
			cpu0 += cpuTime() - c
		}
		round := rounds + 1
		s := fleetPreloadSteps() + episode
		rs := tr.Begin("round", -1, round)
		// The leaves' programs without an observer: the step's events are
		// produced and discarded.
		t0 := time.Now()
		for k, st := range e.streams {
			bufs[k] = st.AppendStep(bufs[k][:0], s)
		}
		m.Detached = append(m.Detached, ms(time.Since(t0)))
		// The same step with the observer: every leaf records it.
		t1 := time.Now()
		for k, st := range e.streams {
			bufs[k] = st.AppendStep(bufs[k][:0], s)
			ts := time.Now()
			e.leaves[k].RecordBatch(bufs[k])
			d := time.Since(ts)
			m.Intake += d
			tr.Record("monitor.record", ts, d, round, int64(len(bufs[k])))
		}
		m.Wired = append(m.Wired, ms(time.Since(t1)))
		m.IntakeEvents += perRound
		rounds++
		episode++
		expected := uint64(fleetPreloadSteps()+episode) * perRound

		snap, err := e.pipe.Scrape(ctx, round, rs)
		visible := time.Now()
		failed := err != nil
		if got := windowEvents(snap); got != expected {
			failed = true
		} else if err == nil {
			m.Visible = append(m.Visible, ms(visible.Sub(t1)))
		}
		d, n, err := e.pipe.Metrics(ctx, round, rs)
		tr.End(rs, 0)
		if err != nil {
			failed = true
		} else {
			m.Metrics = append(m.Metrics, ms(d))
			m.MetricsB = append(m.MetricsB, float64(n))
		}
		// The round's throughput: its events over its time from the
		// record to the end of the read.
		m.Rate = append(m.Rate, float64(perRound)/time.Since(t1).Seconds())
		if failed {
			m.Failed++
		}
	}
	m.CPU += cpuTime() - cpu0
	tr.stopTimed()
	m.Events = uint64(rounds) * perRound
	m.Attempted = uint64(rounds)
	endEpisode(episode)

	// The codec replays leaf 0's timed steps, one batch per round as the
	// leaf recorded them.
	var replay [][]trace.Event
	for s := fleetPreloadSteps(); s < fleetPreloadSteps()+2048; s++ {
		replay = append(replay, e.streams[0].AppendStep(nil, s))
	}
	m.Codec, err = replayCodec(replay, 5)
	return m, err
}
