package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
	"loadimb/internal/trace"
)

// The ingest workload: two LIWP connections, each carrying 64 ranks of one
// 128-rank job (7 regions x 4 activities), stream at full speed into one
// daemon-config collector. The collector feeds a tier-1 federator and the
// root, scraped every 0.5 s plus a final drain: a quarter of imbafed's
// default interval, so a run holds enough visibility samples for a steady
// 95th percentile.
var ingestShape = Shape{Procs: 128, Regions: 7, StepsPerWindow: 128, WindowsPerPhase: 8}

const (
	ingestConns = 2
	// ingestBatchSteps steps go to the client per RecordBatch call: 5376
	// events, more than one 4096-event frame (tracegen -emit's batch).
	ingestBatchSteps  = 3
	ingestClientBatch = 4096
	ingestRound       = 500 * time.Millisecond
	// detachedBatches batches are generated detached in each round's pause.
	detachedBatches = 32
)

// heapEvents is how many events the producers send before the ingest
// workload reads its heap, in the first pause past them, drained and
// after a full collection: 2 M per second of the run, a third of what a
// 2-core Xeon sustains. The collector's window series grows with the
// data, so a heap read at the run's end would measure the host's speed,
// and a peak would catch scrape documents in flight or not; read at a
// fixed volume and a quiet moment, it measures what the pipeline keeps.
func heapEvents(seconds float64) uint64 { return uint64(seconds * 2e6) }

// ingestPreloadSteps is four windows, sent during set-up.
func ingestPreloadSteps() int { return ingestShape.StepsPerWindow * 4 }

// socketSeq numbers the unix sockets of one process.
var socketSeq atomic.Int64

// socketPath returns a fresh unix socket path under the benchmark's build
// directory, relative to the checkout root so it stays short.
func socketPath(name string) (string, error) {
	dir := filepath.Join(".bench_build", "pipebench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%d-%d.sock", name, os.Getpid(), socketSeq.Add(1))), nil
}

type ingestEnv struct {
	streams []*Stream
	col     *monitor.Collector
	ing     *monitor.IngestServer
	pipe    *Pipeline
	clients []*monitor.IngestClient
	steps   []int // next step of each connection
	sent    uint64
}

func (e *ingestEnv) Close() {
	for _, c := range e.clients {
		_ = c.Close()
	}
	if e.ing != nil {
		_ = e.ing.Close()
	}
	if e.pipe != nil {
		e.pipe.Close()
	}
}

// setupIngest builds the topology, connects the producers, preloads one
// schedule cycle through them and runs the cold sync to the root.
func setupIngest(ctx context.Context, seed uint64, tr *Tracer) (*ingestEnv, error) {
	sc, err := NewSchedule(ingestShape, seed)
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{steps: make([]int, ingestConns)}
	per := ingestShape.Procs / ingestConns
	for c := 0; c < ingestConns; c++ {
		e.streams = append(e.streams, sc.Stream(c*per, (c+1)*per))
	}
	e.col = newDaemonCollector()
	e.ing = monitor.NewIngestServer(e.col, monitor.IngestOptions{})
	sock, err := socketPath("ingest")
	if err != nil {
		e.Close()
		return nil, err
	}
	if _, err := e.ing.Listen("unix:" + sock); err != nil {
		e.Close()
		return nil, err
	}
	e.pipe, err = NewPipeline([]*monitor.Collector{e.col},
		[]http.Handler{serve.NewHandler(e.col, serve.WithIngest(e.ing))}, []string{"ingest"}, 1, tr)
	if err != nil {
		e.Close()
		return nil, err
	}
	for c := 0; c < ingestConns; c++ {
		cl, err := monitor.DialIngest("unix:"+sock, monitor.ClientOptions{Batch: ingestClientBatch, FlushInterval: -1})
		if err != nil {
			e.Close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	var wg sync.WaitGroup
	errs := make([]error, ingestConns)
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []trace.Event
			for s := 0; s < ingestPreloadSteps(); s++ {
				buf = e.streams[c].AppendStep(buf[:0], s)
				e.clients[c].RecordBatch(buf)
			}
			e.steps[c] = ingestPreloadSteps()
			errs[c] = e.clients[c].Flush()
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	e.sent = uint64(ingestConns * ingestPreloadSteps() * e.streams[0].EventsPerStep())
	if err := waitEvents(e.col, e.sent, 60*time.Second); err != nil {
		e.Close()
		return nil, err
	}
	snap, err := e.pipe.Scrape(ctx, 0, -1)
	if err != nil {
		e.Close()
		return nil, err
	}
	if got := windowEvents(snap); got != e.sent {
		e.Close()
		return nil, fmt.Errorf("ingest cold sync: root counts %d events, sent %d", got, e.sent)
	}
	return e, nil
}

// progressLog records when the producers had handed over how many events,
// so a root count can be dated: the root is as fresh as the moment the
// producers had sent that many.
type progressLog struct {
	mu    sync.Mutex
	total uint64
	at    []time.Time
	n     []uint64
}

func (p *progressLog) add(n int, at time.Time) {
	p.mu.Lock()
	p.total += uint64(n)
	p.at = append(p.at, at)
	p.n = append(p.n, p.total)
	p.mu.Unlock()
}

// when returns the time the producers' total first reached n.
func (p *progressLog) when(n uint64) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.n), func(i int) bool { return p.n[i] >= n })
	if i == len(p.n) || n == 0 {
		return time.Time{}, false
	}
	return p.at[i], true
}

func runIngest(ctx context.Context, seed uint64, seconds float64, tr *Tracer) (*Measure, error) {
	m := &Measure{Tracer: tr, Params: map[string]any{
		"connections": ingestConns, "ranks": ingestShape.Procs, "regions": ingestShape.Regions,
		"activities": 4, "steps_per_window": ingestShape.StepsPerWindow, "windows_per_phase": ingestShape.WindowsPerPhase,
		"client_batch": ingestClientBatch, "scrape_interval_s": ingestRound.Seconds(), "preload_steps": ingestPreloadSteps(),
	}}
	e, err := repeatSetup(m, func() (*ingestEnv, error) { return setupIngest(ctx, seed, tr) })
	if err != nil {
		return nil, err
	}
	defer e.Close()
	m.Pipe = e.pipe
	preload := e.sent
	stalls0 := ingestCounter(e.ing, monitor.MetricIngestStallsTotal)
	frames0 := ingestCounter(e.ing, monitor.MetricIngestBatchesTotal)

	// The set-ups' garbage must not count toward the timed phase's heap.
	runtime.GC()

	var (
		stop     atomic.Bool
		sent     atomic.Uint64
		progress progressLog
		mu       sync.Mutex
		wg       sync.WaitGroup
		// hold pauses the producers while the root's /metrics is read:
		// in a deployment the root renders in another process, so its
		// rendering must neither compete with the ingest here nor be
		// counted in the pipeline's time or CPU.
		hold      sync.RWMutex
		pausedCPU time.Duration
		// The producers add each batch to the current round's tally; the
		// round reads and resets it while they are held.
		batchNs, batches atomic.Int64
		// resumed is when the producers last resumed, with sent then.
		resumed     time.Time
		sentResumed uint64
		heapAt      = heapEvents(seconds)
		cal         []trace.Event
	)
	tr.startTimed()
	cpu0 := cpuTime()
	start := time.Now()
	resumed = start
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []trace.Event
			var intake time.Duration
			var n uint64
			for s := e.steps[c]; ; s += ingestBatchSteps {
				hold.RLock()
				if stop.Load() {
					hold.RUnlock()
					break
				}
				t0 := time.Now()
				buf = buf[:0]
				for k := 0; k < ingestBatchSteps; k++ {
					buf = e.streams[c].AppendStep(buf, s+k)
				}
				t1 := time.Now()
				e.clients[c].RecordBatch(buf)
				t2 := time.Now()
				progress.add(len(buf), t2)
				sent.Add(uint64(len(buf)))
				tr.Record("monitor.client.send", t1, t2.Sub(t1), -1, int64(len(buf)))
				batchNs.Add(int64(t2.Sub(t0)))
				batches.Add(1)
				intake += t2.Sub(t1)
				n += uint64(len(buf))
				e.steps[c] = s + ingestBatchSteps
				hold.RUnlock()
			}
			mu.Lock()
			m.Intake += intake
			m.IntakeEvents += n
			mu.Unlock()
		}(c)
	}

	// drain pushes the clients' partial frames out and waits until the
	// collector has received and folded everything sent.
	drain := func() error {
		for _, cl := range e.clients {
			if err := cl.Flush(); err != nil {
				return err
			}
		}
		if err := waitEvents(e.col, preload+sent.Load(), 60*time.Second); err != nil {
			return err
		}
		e.col.Fold()
		return nil
	}
	round := 0
	var visibleAt time.Time // when the latest round's root snapshot was taken
	// roundOnce scrapes the root, then holds the producers and drains. A
	// regular round (not the final drain) is a rate sample: everything
	// sent since the producers last resumed is folded when the drain
	// ends, and the sample is those events over that time.
	roundOnce := func(regular bool) (*monitor.Snapshot, error) {
		round++
		m.DecodeBacklog = append(m.DecodeBacklog, float64(sent.Load()+preload)-float64(e.ing.Events()))
		rs := tr.Begin("round", -1, round)
		defer tr.End(rs, 0)
		snap, err := e.pipe.Scrape(ctx, round, rs)
		visibleAt = time.Now()
		m.CPU = cpuTime() - cpu0 - pausedCPU
		if err != nil {
			return snap, err
		}
		if got := windowEvents(snap); got > preload {
			if at, ok := progress.when(got - preload); ok {
				m.Visible = append(m.Visible, ms(visibleAt.Sub(at)))
			}
		}
		// The producers pause and the pipeline drains before the read, so
		// it does not share the cores with a backlog being folded either.
		hold.Lock()
		err = drain()
		p0, c0 := time.Now(), cpuTime()
		if n := batches.Swap(0); regular && err == nil && n > 0 {
			// The producer's time per batch, sending included, and its own
			// work alone: the same batches generated with the pipeline
			// drained and idle, in the same round, so a slow spell of the
			// host slows both.
			m.Wired = append(m.Wired, ms(time.Duration(batchNs.Swap(0)/n)))
			t := time.Now()
			for b := 0; b < detachedBatches; b++ {
				cal = cal[:0]
				for k := 0; k < ingestBatchSteps; k++ {
					cal = e.streams[0].AppendStep(cal, e.steps[0]+k)
				}
			}
			m.Detached = append(m.Detached, ms(time.Since(t))/detachedBatches)
			m.probe()
			m.Rate = append(m.Rate, float64(sent.Load()-sentResumed)/p0.Sub(resumed).Seconds())
		}
		batchNs.Store(0)
		if heapAt > 0 && sent.Load() >= heapAt {
			heapAt = 0
			runtime.GC()
			m.HeapMB = liveHeapMB()
		}
		d, n, merr := e.pipe.Metrics(ctx, round, rs)
		pausedCPU += cpuTime() - c0
		resumed, sentResumed = time.Now(), sent.Load()
		hold.Unlock()
		if err == nil {
			err = merr
		}
		if err != nil {
			return snap, err
		}
		m.Metrics = append(m.Metrics, ms(d))
		m.MetricsB = append(m.MetricsB, float64(n))
		return snap, nil
	}
	var roundErr error
	for k := 1; ; k++ {
		next := start.Add(time.Duration(k) * ingestRound)
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		if _, err := roundOnce(true); err != nil && roundErr == nil {
			roundErr = err
		}
	}
	time.Sleep(time.Until(deadline))
	stop.Store(true)
	wg.Wait()
	for c, cl := range e.clients {
		t0 := time.Now()
		err := cl.Close()
		m.Intake += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("ingest connection %d: %w", c, err)
		}
	}
	e.clients = nil
	total := preload + sent.Load()
	if err := waitEvents(e.col, total, 60*time.Second); err != nil {
		return nil, err
	}
	snap, err := roundOnce(false)
	if err != nil && roundErr == nil {
		roundErr = err
	}
	tr.stopTimed()
	visible := windowEvents(snap)
	if heapAt > 0 {
		// The run ended before heapAt events: the heap at its end.
		runtime.GC()
		m.HeapMB = liveHeapMB()
	}
	m.Events = sent.Load()
	m.Stalls = ingestCounter(e.ing, monitor.MetricIngestStallsTotal) - stalls0
	m.Frames = (ingestCounter(e.ing, monitor.MetricIngestBatchesTotal) - frames0) / float64(round)

	m.Attempted = m.Events
	if visible < total {
		m.Failed += total - visible
	}
	m.Failed += e.col.Dropped() + e.ing.Dropped()
	if roundErr != nil {
		m.Failed++
		m.GateErr = roundErr
	}
	truth := NewTruth()
	for c, st := range e.streams {
		st.AddTo(truth, 0, e.steps[c], "ingest/", 0)
	}
	if err := Gate(e.pipe.Root.Snapshot(), truth); err != nil && m.GateErr == nil {
		m.GateErr = err
	}

	// The codec replays the first timed batches of connection 0 in the
	// client's 4096-event frames.
	var replay []trace.Event
	for s := ingestPreloadSteps(); len(replay) < 1<<19; s++ {
		replay = e.streams[0].AppendStep(replay, s)
	}
	m.Codec, err = replayCodec(chunk(replay, ingestClientBatch), 5)
	return m, err
}
