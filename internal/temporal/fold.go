// Package temporal is the repository's single windowed-analysis engine:
// it folds event traces into per-window per-processor busy-time vectors,
// summarizes them into imbalance trajectories (the /timeline.json the
// live monitor serves), merges the window series of federated endpoints,
// and segments trajectories into phases with PELT-style change-point
// detection.
//
// Before this package existed the windowing semantics lived in two
// divergent copies — the monitor's incremental fold and the offline
// trace.Log.Window clipping — and the offline toolchain had none at all.
// Fold is now the one implementation; Log.Window survives as the
// per-phase slicing oracle its property tests compare against.
//
// The clipping semantics, shared by every consumer:
//
//   - An event overlapping several windows contributes to each the exact
//     overlap of its interval with the half-open window [w·dt, (w+1)·dt).
//   - An event ending exactly on a window boundary belongs to the window
//     it fills, not the empty one it touches.
//   - A zero-duration event contributes no busy time but counts as an
//     event of the window strictly containing its instant; an instant
//     exactly on a boundary belongs to neither side.
//
// Fold keeps its per-window state index-keyed, resolving names once per
// event; a window cap (Options.WindowCap) bounds both the state it
// retains and the work one event can cost.
package temporal

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"loadimb/internal/trace"
)

// Options configures a Fold.
type Options struct {
	// Window is the window width in virtual seconds; it must be
	// positive.
	Window float64
	// Procs is the minimum processor count of the produced series:
	// trajectories divide load over every processor of the run, so ranks
	// that never produce a matching event still count as zeros. 0 means
	// the maximum rank seen plus one.
	Procs int
	// Activities, when non-empty, restricts the busy-time accumulation
	// to the named activities. The live monitor folds everything; the
	// offline toolchain uses the filter to compute, say, the trajectory
	// of computation time alone — in synchronized message-passing runs
	// the all-activity busy time is uniform by construction (waiting is
	// instrumented too), and the imbalance signal lives in how the
	// activity mix is divided.
	Activities []string
	// TrackActivities records per-window per-activity busy time so the
	// series can report each window's dominant activity. The live
	// monitor leaves it off (its wire format predates the field); the
	// offline trajectory turns it on.
	TrackActivities bool
	// PerActivity records per-window per-activity busy *vectors* (one
	// busy time per processor per activity), so a trajectory — and its
	// phase segmentation — can be computed for each activity separately.
	// It is independent of TrackActivities: the live monitor turns on
	// PerActivity alone, keeping /timeline.json's wire format (which has
	// no Dominant field) byte-identical.
	PerActivity bool
	// PerRegion records per-window per-region busy vectors, the code-region
	// counterpart of PerActivity: a diagnosis can then attribute a rank's
	// divergence to the region it spent the extra time in, not just the
	// activity class.
	PerRegion bool
	// WindowCap bounds the fold's retained state: at most WindowCap
	// non-empty windows are kept at full resolution (the ring of the most
	// recent ones); older windows are decimated 2:1 into coarser vectors,
	// and the coarse tail itself re-decimates (doubling its width) when it
	// outgrows the cap, so total state is O(WindowCap) regardless of run
	// length while the full-run trajectory stays queryable at reduced
	// resolution (Series.Coarse). The cap bounds work as well as state:
	// the part of an event spanning more than WindowCap windows that
	// falls below the retained ring goes straight into the coarse tail in
	// closed form, so one event costs O(WindowCap · log span). 0 means
	// unbounded, where every window an event spans is visited — the
	// offline toolchain folds finite traces and keeps exact windows; the
	// live monitor, which must survive forever-looping workloads and
	// hostile frames, sets a cap.
	WindowCap int
}

// DefaultWindowCap is the live monitor's default window cap: small enough
// that per-scrape state and fold cost stay modest (a few MB at typical
// processor counts), large enough that the full-resolution ring spans
// thousands of windows of recent history.
const DefaultWindowCap = 4096

// Fold incrementally accumulates events into per-window busy vectors. It
// is not concurrency-safe; the monitor serializes Add calls under its
// fold mutex, offline callers fold a log single-threaded.
//
// Add resolves an event's activity and region once, through the fold's
// own name tables, to dense indices; each window keeps its per-dimension
// state in slices indexed by them, and names are attached only when
// Series builds the immutable vectors. Windows live in slices in
// ascending index order: the full-resolution ring and, once the cap first
// bites, the coarse tail.
type Fold struct {
	window  float64
	procs   int
	track   bool
	perAct  bool
	perReg  bool
	filter  map[string]bool
	acts    trace.Names
	regs    trace.Names
	windows []*windowAcc

	// Retention state (cap > 0). sealed flips on the first decimation;
	// from then on every base window below ringStart lives folded into
	// coarse (at its base index divided by factor), and ring windows
	// keep full resolution. factor is the current decimation ratio —
	// 2 at first, doubling whenever the coarse tail outgrows the cap.
	cap       int
	sealed    bool
	ringStart int
	factor    int
	coarse    []*windowAcc
}

// windowAcc is one window's running accumulation. act[a][p] and reg[r][p]
// are rank p's busy time in the fold's activity a and region r, an empty
// vector meaning the dimension never ran in the window; actSeconds[a] is
// the window's total time in activity a. built caches the immutable
// WindowVector of the last Series build (padded to builtProcs), so an
// unchanged window costs a header copy per snapshot instead of a vector
// copy — the copy-on-write that makes scrape cost proportional to the
// windows that changed since the last snapshot, not to the retained
// count.
type windowAcc struct {
	index       int
	procSeconds []float64
	events      int
	actSeconds  []float64
	act, reg    [][]float64

	built      *WindowVector
	builtProcs int
}

// NewFold creates a fold. It panics on a non-positive window width —
// a programming error, not data-dependent.
func NewFold(opts Options) *Fold {
	if opts.Window <= 0 {
		panic(fmt.Sprintf("temporal: window width %g must be positive", opts.Window))
	}
	f := &Fold{
		window: opts.Window,
		procs:  opts.Procs,
		track:  opts.TrackActivities,
		perAct: opts.PerActivity,
		perReg: opts.PerRegion,
		cap:    opts.WindowCap,
		factor: 2,
	}
	if len(opts.Activities) > 0 {
		f.filter = make(map[string]bool, len(opts.Activities))
		for _, a := range opts.Activities {
			f.filter[a] = true
		}
	}
	return f
}

// Window returns the configured window width.
func (f *Fold) Window() float64 { return f.window }

// Procs returns the processor count seen so far: the maximum event rank
// plus one, at least Options.Procs.
func (f *Fold) Procs() int { return f.procs }

// Add folds one event. The event must be well formed (trace.Event
// Validate semantics: nonnegative rank, nonnegative duration) and lie
// within 2^62 windows of time zero (|Start|, |End| < Window·2^62), so
// its window indices and the fold's arithmetic on them fit an int.
// Events filtered out by Options.Activities still grow the processor
// count, since an idle processor is the imbalance, not missing data. Negative
// start times are handled by flooring, so an event reaching into
// negative virtual time lands in the negative-index windows covering it
// rather than corrupting window zero.
func (f *Fold) Add(e trace.Event) {
	if e.Rank >= f.procs {
		f.procs = e.Rank + 1
	}
	if f.filter != nil && !f.filter[e.Activity] {
		return
	}
	if e.End == e.Start {
		// A zero-duration event contributes no busy time but still
		// counts as an event of the window strictly containing its
		// instant; an instant exactly on a boundary belongs to neither
		// side, matching Log.Window's half-open [from, to) clipping.
		w := int(math.Floor(e.Start / f.window))
		if e.Start == float64(w)*f.window {
			return
		}
		acc := f.accFor(w)
		acc.procSeconds = grown(acc.procSeconds, e.Rank+1)
		acc.events++
	} else {
		f.addSpan(e)
	}
	// The compaction runs after the clip loop, never inside it: sealing
	// mid-event could decimate the very window the loop still holds an
	// accumulator for.
	if f.cap > 0 && len(f.windows) > f.cap {
		f.compact()
	}
}

// addSpan clips an event of positive duration to every window it
// overlaps.
func (f *Fold) addSpan(e trace.Event) {
	act, reg := -1, -1
	if f.track || f.perAct {
		act = f.acts.Index(e.Activity)
	}
	if f.perReg {
		reg = f.regs.Index(e.Region)
	}
	first := int(math.Floor(e.Start / f.window))
	last := int(math.Floor(e.End / f.window))
	// Drop end windows the event does not reach, so both ends hold some of
	// it: an end on a boundary belongs to the window it fills, and
	// rounding can floor an end onto a boundary above it or a start into
	// the window below. The per-window clip would skip them anyway; the
	// closed-form coarse path would count an event there.
	if float64(last)*f.window >= e.End && last > first {
		last--
	}
	if float64(first+1)*f.window <= e.Start && first < last {
		first++
	}
	// A capped fold bounds the work of an event spanning more windows than
	// the cap. Its windows below the ring start are coarse in any case,
	// and the rest below its newest keep windows are sealed at once; those
	// go straight into the coarse tail, and only the windows from "from"
	// on are clipped one by one.
	from, sealNow := first, false
	if f.cap > 0 && last-first+1 > f.cap {
		if f.sealed && f.ringStart > from {
			from = f.ringStart
		}
		if last-from+1 > f.cap {
			from, sealNow = last-f.keep()+1, true
		}
	}
	for w := from; w <= last; w++ {
		lo, hi := float64(w)*f.window, float64(w+1)*f.window
		if e.Start > lo {
			lo = e.Start
		}
		if e.End < hi {
			hi = e.End
		}
		if hi <= lo {
			continue
		}
		f.addTo(f.accFor(w), e.Rank, act, reg, hi-lo)
	}
	if sealNow {
		f.seal(from)
	}
	if from > first {
		f.addCoarse(e, first, min(from-1, last), act, reg)
	}
}

// addCoarse adds the part of e in base windows [from, to], all below the
// ring start, straight into the coarse tail in O(cap · log span) work:
// the tail is first decimated until it fits the cap together with the
// span's coarse windows, then each of those receives its overlap with e
// and one event per base window it covers.
func (f *Fold) addCoarse(e trace.Event, from, to, act, reg int) {
	var lo, hi, i, j int
	for {
		lo, hi = floorDiv(from, f.factor), floorDiv(to, f.factor)
		i = sort.Search(len(f.coarse), func(k int) bool { return f.coarse[k].index >= lo })
		j = sort.Search(len(f.coarse), func(k int) bool { return f.coarse[k].index > hi })
		if i+(hi-lo+1)+len(f.coarse)-j <= coarseCap(f.cap) {
			break
		}
		f.decimate()
	}
	merged := make([]*windowAcc, 0, i+(hi-lo+1)+len(f.coarse)-j)
	merged = append(merged, f.coarse[:i]...)
	for c := lo; c <= hi; c++ {
		acc := &windowAcc{index: c}
		if i < j && f.coarse[i].index == c {
			acc, i = f.coarse[i], i+1
		}
		a, b := max(from, c*f.factor), min(to, c*f.factor+f.factor-1)
		t := min(e.End, float64(b+1)*f.window) - max(e.Start, float64(a)*f.window)
		f.addTo(acc, e.Rank, act, reg, t)
		acc.events += b - a // addTo counted one
		acc.built = nil
		merged = append(merged, acc)
	}
	f.coarse = append(merged, f.coarse[j:]...)
}

// addTo adds t seconds of rank's busy time, in activity act and region
// reg, to one window as one event.
func (f *Fold) addTo(acc *windowAcc, rank, act, reg int, t float64) {
	acc.procSeconds = grown(acc.procSeconds, rank+1)
	acc.procSeconds[rank] += t
	acc.events++
	if f.track {
		acc.actSeconds = grown(acc.actSeconds, act+1)
		acc.actSeconds[act] += t
	}
	if f.perAct {
		acc.act = addAt(acc.act, act, rank, t)
	}
	if f.perReg {
		acc.reg = addAt(acc.reg, reg, rank, t)
	}
}

// addAt adds t to vecs[d][rank], growing both dimensions as needed.
func addAt(vecs [][]float64, d, rank int, t float64) [][]float64 {
	vecs = grown(vecs, d+1)
	vecs[d] = grown(vecs[d], rank+1)
	vecs[d][rank] += t
	return vecs
}

// grown returns s extended with zero values to at least n elements.
func grown[T any](s []T, n int) []T {
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// accFor returns the mutable accumulator the base window w folds into: a
// ring window at full resolution, or — for a late event landing below the
// retention boundary — the coarse window covering it.
func (f *Fold) accFor(w int) *windowAcc {
	var acc *windowAcc
	if f.sealed && w < f.ringStart {
		acc = accAt(&f.coarse, floorDiv(w, f.factor))
	} else {
		acc = accAt(&f.windows, w)
	}
	acc.built = nil
	return acc
}

// accAt returns the accumulator of window index in the ascending list
// accs, inserting an empty one in order on first use. The newest window
// is tried first: an in-order stream either hits it or appends after it,
// and only late events pay the binary search.
func accAt(accs *[]*windowAcc, index int) *windowAcc {
	list := *accs
	i := len(list)
	if i > 0 && list[i-1].index >= index {
		i = sort.Search(len(list), func(k int) bool { return list[k].index >= index })
		if list[i].index == index {
			return list[i]
		}
	}
	acc := &windowAcc{index: index}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = acc
	*accs = list
	return acc
}

// compact enforces the window cap: all but the newest cap - cap/4 ring
// windows are sealed into the coarse tail. Quarter-at-a-time hysteresis
// amortizes the work: one O(cap) compaction per cap/4 appended windows.
func (f *Fold) compact() {
	f.seal(f.windows[len(f.windows)-f.keep()].index)
}

// coarseCap is the most windows a coarse tail holds under window cap
// cap: the cap itself, but at least 2, because decimation never merges
// the windows before time zero with those after it.
func coarseCap(cap int) int { return max(cap, 2) }

// keep is the number of ring windows a compaction keeps.
func (f *Fold) keep() int { return f.cap - f.cap/4 }

// seal moves every ring window below cut into the coarse tail at the
// current factor and makes cut the ring start; the tail then
// re-decimates 2:1 — doubling its width — until it fits the cap too.
// Coarse windows hold only base windows below the old ring start, so in
// ascending order each sealed window merges into the newest coarse
// window or becomes the next one: a linear pass whose fixed order makes
// repeated runs over the same events produce identical sums.
func (f *Fold) seal(cut int) {
	n := 0
	for n < len(f.windows) && f.windows[n].index < cut {
		f.coarse = appendMerged(f.coarse, f.windows[n], floorDiv(f.windows[n].index, f.factor))
		n++
	}
	kept := copy(f.windows, f.windows[n:])
	clear(f.windows[kept:])
	f.windows = f.windows[:kept]
	f.ringStart, f.sealed = cut, true
	for len(f.coarse) > coarseCap(f.cap) {
		f.decimate()
	}
}

// decimate doubles the coarse width, merging neighbouring coarse windows
// 2:1 in one ascending pass.
func (f *Fold) decimate() {
	f.factor *= 2
	out := f.coarse[:0]
	for _, acc := range f.coarse {
		out = appendMerged(out, acc, floorDiv(acc.index, 2))
	}
	clear(f.coarse[len(out):])
	f.coarse = out
}

// appendMerged adds acc to the ascending list accs as window index:
// merged into the last window when that one already has the index,
// appended (acc itself, re-indexed) otherwise.
func appendMerged(accs []*windowAcc, acc *windowAcc, index int) []*windowAcc {
	if n := len(accs); n > 0 && accs[n-1].index == index {
		accs[n-1].mergeFrom(acc)
		return accs
	}
	acc.index, acc.built = index, nil
	return append(accs, acc)
}

// mergeFrom folds src's accumulation into a: the 2:1 decimation step.
// Busy time is additive over window unions, so the merged vectors equal
// the exact windows resampled to the coarser width.
func (a *windowAcc) mergeFrom(src *windowAcc) {
	a.built = nil
	a.procSeconds = addInto(a.procSeconds, src.procSeconds)
	a.events += src.events
	a.actSeconds = addInto(a.actSeconds, src.actSeconds)
	a.act = addVecs(a.act, src.act)
	a.reg = addVecs(a.reg, src.reg)
}

// addVecs sums src's per-dimension vectors into dst elementwise.
func addVecs(dst, src [][]float64) [][]float64 {
	dst = grown(dst, len(src))
	for d, vec := range src {
		dst[d] = addInto(dst[d], vec)
	}
	return dst
}

// addInto sums src into dst elementwise, growing dst as needed.
func addInto(dst, src []float64) []float64 {
	dst = grown(dst, len(src))
	for i, t := range src {
		dst[i] += t
	}
	return dst
}

// floorDiv is floored integer division: the quotient rounds toward
// negative infinity, so negative window indices decimate into the coarse
// window covering them rather than the one above.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Series snapshots the fold into an immutable window series: one entry
// per non-empty window in time order, busy vectors padded to Procs so
// ranks idle for a whole window count as zeros. The fold can keep
// accumulating afterwards; the series does not alias its mutable buffers
// — windows unchanged since the previous Series call share their built
// immutable vectors, so the snapshot costs O(retained) header copies plus
// vector copies only for the windows that actually changed.
//
// With a WindowCap set, Windows is the full-resolution ring and the
// decimated prefix is published through the series' Coarse fields.
func (f *Fold) Series() *Series {
	s := &Series{Window: f.window, Procs: f.procs}
	s.Windows = f.buildList(f.windows)
	if f.sealed {
		s.CoarseWindow = f.window * float64(f.factor)
		s.RingStart = f.ringStart
		s.Coarse = f.buildList(f.coarse)
	}
	return s
}

// buildList renders one accumulator list as immutable vectors, reusing
// each accumulator's cached build when neither it nor the processor
// count changed.
func (f *Fold) buildList(accs []*windowAcc) []WindowVector {
	if len(accs) == 0 {
		return nil
	}
	out := make([]WindowVector, len(accs))
	for i, acc := range accs {
		out[i] = *acc.build(f.procs, f.acts.List(), f.regs.List())
	}
	return out
}

// build returns the accumulator's immutable vector, padded to procs and
// with the fold's activity and region names attached, rebuilding only
// when the accumulation changed or the processor count grew since the
// cached build.
func (a *windowAcc) build(procs int, acts, regs []string) *WindowVector {
	if a.built != nil && a.builtProcs == procs {
		return a.built
	}
	v := &WindowVector{
		Index:       a.index,
		Events:      a.events,
		ProcSeconds: grown(slices.Clone(a.procSeconds), procs),
		Dominant:    dominant(a.actSeconds, acts),
		PerActivity: named(a.act, acts, procs),
		PerRegion:   named(a.reg, regs, procs),
	}
	a.built, a.builtProcs = v, procs
	return v
}

// named keys the non-empty per-dimension vectors by their names, padded
// to procs; nil when the window recorded none.
func named(vecs [][]float64, names []string, procs int) map[string][]float64 {
	var out map[string][]float64
	for d, vec := range vecs {
		if len(vec) == 0 {
			continue
		}
		if out == nil {
			out = make(map[string][]float64)
		}
		out[names[d]] = grown(slices.Clone(vec), procs)
	}
	return out
}

// dominant returns the activity with the largest busy time, breaking
// ties by name so the result is deterministic; "" when nothing was
// tracked.
func dominant(actSeconds []float64, names []string) string {
	best, bestT := "", 0.0
	for a, t := range actSeconds {
		if t > bestT || (t == bestT && t > 0 && names[a] < best) {
			best, bestT = names[a], t
		}
	}
	return best
}

// FoldLog folds a whole event log and returns its window series — the
// offline equivalent of the monitor's incremental windowing. The
// processor count is the log's rank count (or Options.Procs if larger),
// so filtered trajectories still standardize over every processor of
// the run.
func FoldLog(lg *trace.Log, opts Options) (*Series, error) {
	if lg == nil {
		return nil, fmt.Errorf("temporal: nil log")
	}
	if opts.Window <= 0 {
		return nil, fmt.Errorf("temporal: window width %g must be positive", opts.Window)
	}
	f := NewFold(opts)
	lg.Each(f.Add)
	return f.Series(), nil
}
