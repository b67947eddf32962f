// Package monitor turns the repository's post-mortem analysis pipeline
// into a live observability stack. A Collector is a concurrency-safe
// trace.Sink that instrumented programs (internal/mpi worlds, the
// internal/cfd solver, the internal/apps applications) stream their
// events into while they run; it folds them incrementally into a live
// measurement cube and publishes immutable snapshots that HTTP handlers
// (see NewHandler) expose as Prometheus gauges, raw cube JSON, Lorenz
// curve points and a windowed imbalance timeline.
//
// The design separates the hot path from the analysis path:
//
//   - Record appends the event to a sharded buffer under a per-shard
//     mutex — a few dozen nanoseconds, far below the sub-microsecond
//     budget of instrumentation (see BenchmarkCollectorRecord).
//   - RecordBatch amortizes those costs over whole batches (one lock
//     acquisition per same-shard run, one counter bump per batch), and a
//     Producer handle removes the locks entirely: a per-source SPSC ring
//     whose steady-state publish path performs zero heap allocations (see
//     ring.go and BenchmarkRecordBatch). The network ingest listener
//     (ingest.go) feeds one Producer per connection.
//   - Snapshot drains the shards and the producer rings, folds the
//     drained events into the running totals (per-cell wall clock sums,
//     Welford event-duration accumulators from internal/stats, per-window
//     processor loads) and publishes an immutable *Snapshot through an
//     atomic pointer. Drained buffers are recycled, so steady-state
//     collection reaches an allocation fixpoint.
//   - Latest returns the most recently published snapshot without taking
//     any lock, so readers never block writers and vice versa.
package monitor

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"loadimb/internal/diagnose"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// Options configures a Collector. The zero value is usable: 8 shards, no
// preset dimension order, no temporal windows.
type Options struct {
	// Shards is the number of event buffers Record spreads load across;
	// it is rounded up to a power of two. 0 means 8.
	Shards int
	// Window is the width, in virtual seconds, of the temporal windows
	// the collector tracks per-processor load in (the imbalance
	// trajectory served at /timeline.json). 0 disables windowing.
	Window float64
	// Regions and Activities preset the cube dimension orders, so gauge
	// label sets stay stable from the first scrape and match an offline
	// aggregation using the same orders. Names not listed are appended
	// in order of first appearance.
	Regions, Activities []string
	// PhasePenalty is the change-point penalty of the streaming phase
	// detection run over the window trajectory (served at /phases.json);
	// <= 0 selects the automatic default, matching what an offline
	// `imba -phases` finds on the same trace. Phase detection is only
	// active when Window is set.
	PhasePenalty float64
	// WindowCap bounds the temporal state: the fold keeps the most recent
	// WindowCap windows at full resolution and decimates older ones 2:1
	// into a coarse tail of at most WindowCap windows, so a forever-running
	// workload holds O(WindowCap) state instead of growing without bound.
	// 0 means temporal.DefaultWindowCap — the live path is bounded by
	// default, since it is exactly the path that cannot assume the run
	// ends. Negative disables the cap (the pre-retention unbounded
	// behavior, for runs known to be short). A capped fold takes an event
	// in O(cap · log span) work however many windows it spans; an
	// uncapped one visits every window, by design, so a single event can
	// hold the fold for as long as its span is wide — never disable the
	// cap with a network ingest listener attached, where one frame can
	// claim an end time 10^9 windows away.
	WindowCap int
	// MaxRank bounds the processor rank an event may carry; events above
	// it are dropped and counted as malformed. The fold allocates
	// per-rank state proportional to the largest rank seen, so a wild
	// rank — an instrumentation bug in-process, or a hostile frame on
	// the network ingest path, where the rank is decoded from
	// peer-controlled bytes — must be rejected before it can balloon
	// collector memory. 0 means DefaultMaxRank; negative disables the
	// bound (in-process trusted producers only — never with a network
	// ingest listener attached).
	MaxRank int
}

// DefaultMaxRank is the default bound on event ranks (Options.MaxRank):
// generous enough for the million-core story, small enough that the
// per-rank fold state a single event can force stays in the megabytes.
const DefaultMaxRank = 1 << 20

// Collector is a live, concurrency-safe event collector implementing
// trace.Sink. Create one with NewCollector.
type Collector struct {
	window  float64
	mask    uint64
	boot    uint64
	maxRank int
	shards  []shard
	events  atomic.Uint64
	dropped atomic.Uint64
	// endLimit is the end time an event must stay below: +Inf without
	// windowing, else the start of window 2^62, so the window fold's int
	// window indices cannot overflow.
	endLimit float64

	// spare holds, per shard, the previously drained buffer awaiting
	// reuse: the drain hands it (emptied) to the shard it came from at the
	// next swap, so a steady Record-between-scrapes cycle recirculates two
	// buffers per shard instead of reallocating from zero every scrape.
	// Only the fold path touches it (under foldMu).
	spare [][]trace.Event

	// prodMu guards the SPSC producer registry; registration is rare, so
	// the fold copies the list under the lock and drains outside it.
	prodMu      sync.Mutex
	producers   []*Producer
	prodScratch []*Producer

	// foldMu serializes snapshotters; it is never held while a shard
	// mutex is held longer than a buffer swap.
	foldMu sync.Mutex
	state  foldState
	// gen counts published snapshot generations; it only advances when a
	// fold actually changed the state, so an unchanged collector keeps
	// re-serving the same immutable snapshot (and its memoized views).
	gen uint64
	// diag is the per-phase diagnosis cache every published snapshot
	// carries, so re-diagnosing a new generation skips unchanged phases.
	diag diagnose.Memo

	snap atomic.Pointer[Snapshot]
}

// shard is one Record buffer. The padding keeps shards on distinct cache
// lines so ranks hashing to different shards do not false-share.
type shard struct {
	mu  sync.Mutex
	buf []trace.Event
	_   [24]byte
}

// NewCollector creates a collector with the given options.
func NewCollector(opts Options) *Collector {
	n := opts.Shards
	if n <= 0 {
		n = 8
	}
	pow := 1
	for pow < n {
		pow *= 2
	}
	maxRank := opts.MaxRank
	switch {
	case maxRank == 0:
		maxRank = DefaultMaxRank
	case maxRank < 0:
		maxRank = math.MaxInt
	}
	c := &Collector{
		window:  opts.Window,
		mask:    uint64(pow - 1),
		shards:  make([]shard, pow),
		spare:   make([][]trace.Event, pow),
		boot:    BootNonce(),
		maxRank: maxRank,
	}
	c.endLimit = math.Inf(1)
	if opts.Window > 0 {
		c.endLimit = opts.Window * (1 << 62)
	}
	c.state.init(opts.Regions, opts.Activities)
	if opts.Window > 0 {
		// The windowing itself lives in internal/temporal — the one
		// implementation of the clipping semantics, shared with the
		// offline and federated pipelines. PerActivity keeps per-window
		// per-activity busy vectors so /phases.json can name each phase's
		// hot activities (TrackActivities stays off: /timeline.json's
		// wire format has no Dominant field); PerRegion adds the region
		// split so /diagnose.json can attribute a rank's divergence to
		// the code region the extra time went to.
		winCap := opts.WindowCap
		if winCap == 0 {
			winCap = temporal.DefaultWindowCap
		}
		if winCap < 0 {
			winCap = 0 // explicit opt-out: unbounded
		}
		c.state.tw = temporal.NewFold(temporal.Options{
			Window:      opts.Window,
			PerActivity: true,
			PerRegion:   true,
			WindowCap:   winCap,
		})
		c.state.seg = temporal.NewStreamSegmenter(opts.PhasePenalty)
	}
	return c
}

// BootNonce returns a value distinguishing one snapshot-publisher
// incarnation from any other, so a scraper comparing snapshot ETags
// never mistakes a restarted publisher (whose Gen restarted from zero)
// for an unchanged one. Collectors take one per NewCollector; the
// federation layer takes one per Federator, since a federator is itself
// a snapshot publisher that downstream federators may scrape.
// Wall-clock nanoseconds shifted to make room for a process-local
// counter: distinct within a process by the counter, across processes by
// the clock.
func BootNonce() uint64 {
	return uint64(time.Now().UnixNano())<<10 | (bootSeq.Add(1) & 0x3ff)
}

var bootSeq atomic.Uint64

// Record folds one event into the collector. It is safe for concurrent
// use and sits on the instrumented program's critical path, so it only
// appends to a sharded buffer; the aggregation happens at Snapshot.
// Malformed events (rank outside [0, MaxRank], empty names, end before
// start, start before virtual time zero, non-finite timestamps and, with
// windowing on, an end at or past window 2^62, whose index an int cannot
// hold) are dropped and counted instead of corrupting the cube. A live
// run's virtual clock starts at zero, so a negative start can only be an
// instrumentation bug; the shared window fold would handle it (it floors
// into negative-index windows), but the live wire format has no place
// for windows before the run began.
func (c *Collector) Record(e trace.Event) {
	if c.malformed(e) {
		c.dropped.Add(1)
		return
	}
	s := &c.shards[uint64(e.Rank)&c.mask]
	s.mu.Lock()
	s.buf = append(s.buf, e)
	s.mu.Unlock()
	c.events.Add(1)
}

// malformed is the validity test of Record, shared by every intake path
// so the batched and wire paths drop exactly what Record drops. The
// timestamp tests are spelled with negated comparisons so NaN fails
// them (every ordered comparison against NaN is false): the wire
// decoder reconstructs timestamps from arbitrary IEEE-754 bit patterns,
// and a NaN duration folded into a cell would poison its accumulators
// permanently. +Inf is caught by the endLimit test (an infinite End
// also makes the duration infinite, and an infinite Start forces an
// infinite End). The rank bound likewise guards the fold's per-rank
// allocations against a decoded rank no real machine has, and endLimit
// keeps the window fold's indices in int range.
func (c *Collector) malformed(e trace.Event) bool {
	return e.Rank < 0 || e.Rank > c.maxRank ||
		e.Region == "" || e.Activity == "" ||
		!(e.Start >= 0) || !(e.End >= e.Start) || !(e.End < c.endLimit)
}

// RecordBatch folds a whole batch with batch-granular costs: events are
// appended to the sharded buffers in runs (one lock acquisition per run
// of same-shard events instead of one per event) and the counters are
// bumped once per batch instead of once per event. The result is
// bit-for-bit identical to calling Record on each event in order — same
// drops, same per-shard order, therefore the same fold. The batch slice
// is not retained. For the highest rates, prefer a Producer ring, which
// removes the locks entirely.
func (c *Collector) RecordBatch(events []trace.Event) {
	var recorded, malformed uint64
	i := 0
	for i < len(events) {
		if c.malformed(events[i]) {
			malformed++
			i++
			continue
		}
		sh := uint64(events[i].Rank) & c.mask
		j := i + 1
		for j < len(events) && !c.malformed(events[j]) && uint64(events[j].Rank)&c.mask == sh {
			j++
		}
		s := &c.shards[sh]
		s.mu.Lock()
		s.buf = append(s.buf, events[i:j]...)
		s.mu.Unlock()
		recorded += uint64(j - i)
		i = j
	}
	if recorded > 0 {
		c.events.Add(recorded)
	}
	if malformed > 0 {
		c.dropped.Add(malformed)
	}
}

// Events returns the number of events recorded so far (including ones
// not yet folded into a snapshot).
func (c *Collector) Events() uint64 { return c.events.Load() }

// Dropped returns the number of malformed events rejected so far.
func (c *Collector) Dropped() uint64 { return c.dropped.Load() }

// Window returns the configured temporal window width in virtual
// seconds; 0 when windowing is disabled.
func (c *Collector) Window() float64 { return c.window }

// Snapshot drains the buffered events, folds them into the running
// aggregation and publishes the resulting immutable snapshot, which it
// also returns. Concurrent Record calls are only blocked for the length
// of one buffer swap; concurrent Snapshot calls serialize.
func (c *Collector) Snapshot() *Snapshot {
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	// Capture the drop counter before draining. The event counter is NOT
	// read from c.events: a Record racing with the drain could already
	// have bumped it without its event being in the drained buffers, and
	// a published snapshot must never claim events its cube does not
	// account for. foldState.folded counts exactly the folded events.
	dropped := c.dropped.Load()
	c.foldPending()
	// Nothing changed since the last build: re-serve the previous immutable
	// snapshot, so scrape handlers reuse its memoized analysis instead of
	// recomputing every index for identical data. The folded count — not
	// the drain count of this call — is what the comparison must use: a
	// background Fold between two snapshots advances the state while
	// leaving this call's drain empty.
	if prev := c.snap.Load(); prev != nil && c.state.folded == prev.Events && dropped == prev.Dropped {
		return prev
	}
	c.gen++
	snap := c.state.build(c.state.folded, dropped, c.gen)
	snap.Boot = c.boot
	snap.DiagnosisMemo = &c.diag
	c.snap.Store(snap)
	return snap
}

// Latest returns the most recently published snapshot without draining
// the buffers or taking any lock; it returns nil before the first
// Snapshot call.
func (c *Collector) Latest() *Snapshot { return c.snap.Load() }

// Fold drains every pending event — sharded buffers and producer rings —
// into the running aggregation without building or publishing a snapshot,
// and reports how many events it folded. Background folders (the ingest
// listener runs one) call it between scrapes so producer rings stay
// shallow at high event rates; the next Snapshot then only folds the
// tail. Also note that a fold changes no observable snapshot state: Gen
// advances only when a snapshot is actually built over new content.
func (c *Collector) Fold() int {
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	return c.foldPending()
}

// foldPending drains the sharded buffers and the producer rings into the
// fold state, returning the number of events folded. The caller holds
// foldMu. Drained shard buffers are recycled: each shard gets its
// previously drained (now empty) buffer back at the swap, so steady-state
// recording reallocates nothing — the fix for the drain-alloc churn where
// every Record-between-scrapes cycle regrew the buffers from nil.
func (c *Collector) foldPending() int {
	drained := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		buf := s.buf
		s.buf = c.spare[i]
		s.mu.Unlock()
		c.spare[i] = nil
		for _, e := range buf {
			c.state.fold(e)
		}
		drained += len(buf)
		if cap(buf) <= maxRecycledSlab {
			c.spare[i] = buf[:0]
		}
	}
	// Drain the SPSC rings. The registry is copied under its own lock so
	// a connection registering mid-fold neither blocks nor is missed for
	// longer than one fold; drain order is registration order, keeping
	// the fold deterministic for a fixed set of producers.
	c.prodMu.Lock()
	prods := append(c.prodScratch[:0], c.producers...)
	c.prodScratch = prods
	c.prodMu.Unlock()
	pruned := false
	for _, p := range prods {
		drained += p.drain(&c.state)
		if p.closed.Load() && p.head.Load() == p.tail.Load() {
			pruned = true
		}
	}
	if pruned {
		// Unregister closed, fully drained producers so connection churn
		// does not accumulate dead rings.
		c.prodMu.Lock()
		kept := c.producers[:0]
		for _, p := range c.producers {
			if p.closed.Load() && p.head.Load() == p.tail.Load() {
				continue
			}
			kept = append(kept, p)
		}
		for i := len(kept); i < len(c.producers); i++ {
			c.producers[i] = nil
		}
		c.producers = kept
		c.prodMu.Unlock()
	}
	return drained
}

// foldState is the running aggregation the snapshots are built from. It
// is only touched under Collector.foldMu.
type foldState struct {
	// regions and activities index the cube dimensions.
	regions, activities trace.Names

	procs int
	span  float64
	// folded is the number of events folded so far: exactly the events
	// the running totals (and therefore every published cube) account
	// for, unlike Collector.events which racing recorders may bump
	// before their event is drainable.
	folded uint64
	// totals[i][j] holds the per-rank accumulated wall clock time of
	// cell (i, j); rank slices grow on demand.
	totals [][][]float64
	// durs[i][j] is the streaming event-duration accumulator of the
	// cell.
	durs [][]stats.Accumulator
	// tw is the shared windowing engine accumulating the per-window
	// per-rank busy times (internal/temporal owns the clipping
	// semantics); nil when windowing is disabled.
	tw *temporal.Fold
	// seg maintains the PELT phase optimum incrementally across
	// snapshots: each build syncs it with the fresh trajectory (the
	// still-growing tail window rewinds, the settled prefix's DP state is
	// reused) so live phase detection costs amortized-constant work per
	// window instead of a full segmentation per scrape. nil when
	// windowing is disabled.
	seg *temporal.StreamSegmenter
}

func (s *foldState) init(regions, activities []string) {
	for _, r := range regions {
		s.regions.Index(r)
	}
	for _, a := range activities {
		s.activities.Index(a)
	}
	s.grow()
}

// grow extends the cell arrays to every region and activity the name
// tables hold, keeping them rectangular.
func (s *foldState) grow() {
	nr, na := len(s.regions.List()), len(s.activities.List())
	for i := range s.totals {
		for len(s.totals[i]) < na {
			s.totals[i] = append(s.totals[i], nil)
			s.durs[i] = append(s.durs[i], stats.Accumulator{})
		}
	}
	for len(s.totals) < nr {
		s.totals = append(s.totals, make([][]float64, na))
		s.durs = append(s.durs, make([]stats.Accumulator, na))
	}
}

// fold accumulates one event into the running totals. Record already
// rejected malformed events, so e has a nonnegative rank and start and a
// nonnegative duration.
func (s *foldState) fold(e trace.Event) {
	i, j := s.regions.Index(e.Region), s.activities.Index(e.Activity)
	if i >= len(s.totals) || j >= len(s.totals[i]) {
		s.grow()
	}
	s.folded++
	if e.Rank >= s.procs {
		s.procs = e.Rank + 1
	}
	if e.End > s.span {
		s.span = e.End
	}
	for len(s.totals[i][j]) <= e.Rank {
		s.totals[i][j] = append(s.totals[i][j], 0)
	}
	d := e.End - e.Start
	s.totals[i][j][e.Rank] += d
	s.durs[i][j].Add(d)
	if s.tw != nil {
		s.tw.Add(e)
	}
}
