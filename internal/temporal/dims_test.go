package temporal

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"loadimb/internal/trace"
)

// checkDimensions folds the log unbounded, with every per-dimension
// option on, and checks each window against the ground truth of the
// events Log.Window clips to it: PerActivity and PerRegion are the
// per-(dimension, rank) sums of the clipped durations, bit for bit (the
// fold clips with the same arithmetic); a dimension without busy time in
// the window is absent; Dominant is the argmax of the per-activity
// totals, ties broken by name. Windows must be a power of two so window
// bounds are exact and both sides agree on which window an instant
// falls in.
func checkDimensions(t testing.TB, lg *trace.Log, window float64) {
	t.Helper()
	ser, err := FoldLog(lg, Options{Window: window, TrackActivities: true, PerActivity: true, PerRegion: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser.Windows {
		v := &ser.Windows[i]
		clipped, err := lg.Window(float64(v.Index)*window, float64(v.Index+1)*window)
		if err != nil {
			t.Fatal(err)
		}
		acts := map[string][]float64{}
		regs := map[string][]float64{}
		totals := map[string]float64{}
		add := func(m map[string][]float64, key string, rank int, d float64) {
			if m[key] == nil {
				m[key] = make([]float64, ser.Procs)
			}
			m[key][rank] += d
		}
		clipped.Each(func(e trace.Event) {
			if d := e.Duration(); d > 0 { // an instant adds no dimension
				add(acts, e.Activity, e.Rank, d)
				add(regs, e.Region, e.Rank, d)
				totals[e.Activity] += d
			}
		})
		if !reflect.DeepEqual(nilIfEmpty(acts), v.PerActivity) {
			t.Fatalf("window %d per-activity vectors\n got %v\nwant %v", v.Index, v.PerActivity, acts)
		}
		if !reflect.DeepEqual(nilIfEmpty(regs), v.PerRegion) {
			t.Fatalf("window %d per-region vectors\n got %v\nwant %v", v.Index, v.PerRegion, regs)
		}
		names := make([]string, 0, len(totals))
		for a := range totals {
			names = append(names, a)
		}
		sort.Strings(names)
		want := ""
		for _, a := range names {
			if want == "" || totals[a] > totals[want] {
				want = a
			}
		}
		if v.Dominant != want {
			t.Fatalf("window %d dominant = %q, want %q (totals %v)", v.Index, v.Dominant, want, totals)
		}
	}
}

func nilIfEmpty(m map[string][]float64) map[string][]float64 {
	if len(m) == 0 {
		return nil
	}
	return m
}

// checkBounded compares a capped fold's series with the unbounded fold
// of the same events: the ring is the unbounded series from RingStart
// on, window for window DeepEqual, and the coarse tail equals the
// windows below RingStart resampled to the coarse width.
func checkBounded(t *testing.T, free, bounded *Series) {
	t.Helper()
	suffix := free.Windows
	if bounded.CoarseWindow > 0 {
		k := sort.Search(len(suffix), func(i int) bool { return suffix[i].Index >= bounded.RingStart })
		suffix = suffix[k:]
	} else if len(bounded.Coarse) > 0 {
		t.Fatalf("%d coarse windows without a coarse width", len(bounded.Coarse))
	}
	if len(bounded.Windows) != len(suffix) {
		t.Fatalf("ring holds %d windows, unbounded suffix %d", len(bounded.Windows), len(suffix))
	}
	for i := range suffix {
		if !reflect.DeepEqual(bounded.Windows[i], suffix[i]) {
			t.Fatalf("ring window %d differs from unbounded fold:\n got %+v\nwant %+v",
				suffix[i].Index, bounded.Windows[i], suffix[i])
		}
	}
	if bounded.CoarseWindow <= 0 {
		return
	}
	want := resample(free, int(math.Round(bounded.CoarseWindow/bounded.Window)), bounded.RingStart)
	if len(want) != len(bounded.Coarse) {
		t.Fatalf("%d coarse windows, resampled oracle has %d", len(bounded.Coarse), len(want))
	}
	for i := range bounded.Coarse {
		g := &bounded.Coarse[i]
		w, ok := want[g.Index]
		if !ok {
			t.Fatalf("coarse window %d absent from resampled oracle", g.Index)
		}
		if g.Events != w.Events {
			t.Fatalf("coarse window %d events = %d, oracle %d", g.Index, g.Events, w.Events)
		}
		assertVecClose(t, "busy", g.Index, g.ProcSeconds, w.ProcSeconds)
		assertMapClose(t, "activity", g.Index, g.PerActivity, w.PerActivity)
		assertMapClose(t, "region", g.Index, g.PerRegion, w.PerRegion)
	}
}

// shuffled returns the log's events in a deterministic pseudo-random
// order (Fisher-Yates over an xorshift stream).
func shuffled(t *testing.T, lg *trace.Log, seed uint64) *trace.Log {
	t.Helper()
	events := lg.Events()
	rng := seed
	for i := len(events) - 1; i > 0; i-- {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		j := int(rng % uint64(i+1))
		events[i], events[j] = events[j], events[i]
	}
	var out trace.Log
	for _, e := range events {
		if err := out.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return &out
}

// TestFoldDimensionsMatchLogWindow checks the per-activity and
// per-region vectors and the dominant activity against Log.Window,
// including exact ties and a window holding only an instant.
func TestFoldDimensionsMatchLogWindow(t *testing.T) {
	checkDimensions(t, synthLog(5, 60, 3), 0.25)
	checkDimensions(t, synthLog(3, 40, 8), 1)
	var lg trace.Log
	for _, e := range []trace.Event{
		// Window 0: a and b tie at 0.5 s, so a dominates.
		{Rank: 0, Region: "r", Activity: "b", Start: 0, End: 0.5},
		{Rank: 1, Region: "s", Activity: "a", Start: 0.25, End: 0.75},
		// Window 1: b and c tie at 0.5 s, so b dominates; c runs on two
		// ranks, region s on one.
		{Rank: 0, Region: "r", Activity: "c", Start: 1, End: 1.25},
		{Rank: 1, Region: "r", Activity: "c", Start: 1.5, End: 1.75},
		{Rank: 2, Region: "s", Activity: "b", Start: 1, End: 1.5},
		// Window 2 holds only an instant: an event, no dimension.
		{Rank: 2, Region: "s", Activity: "d", Start: 2.5, End: 2.5},
	} {
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	checkDimensions(t, &lg, 1)
}

// TestBoundedFoldOutOfOrder feeds capped folds a shuffled log, so events
// arrive both in the middle of the ring (inserting windows there) and
// below the ring start (folding into the coarse tail late). The ring
// must still equal the unbounded fold of the same order and the coarse
// tail its resampling.
func TestBoundedFoldOutOfOrder(t *testing.T) {
	lg := shuffled(t, synthLog(6, 400, 99), 17)
	opts := Options{Window: 0.25, TrackActivities: true, PerActivity: true, PerRegion: true}
	free := foldLog(t, lg, opts)
	for _, cap := range []int{8, 32, 100} {
		opts.WindowCap = cap
		f := NewFold(opts)
		late, inserts := 0, 0
		lg.Each(func(e trace.Event) {
			w := int(math.Floor(e.Start / f.window))
			switch n := len(f.windows); {
			case f.sealed && w < f.ringStart:
				late++
			case n > 0 && w < f.windows[n-1].index:
				inserts++
			}
			f.Add(e)
		})
		if late == 0 || inserts == 0 {
			t.Fatalf("cap %d: %d late events, %d below the newest ring window; the shuffle must produce both", cap, late, inserts)
		}
		checkBounded(t, free, f.Series())
	}
}

// TestLongEventMatchesUnboundedFold: an event spanning 10^5 windows takes
// the capped fold's closed-form coarse path, whether it arrives first,
// spans the ring start into the future, ends a few windows into the
// ring or lies wholly below it. Right after it, ring and coarse tail must
// fit the cap; then and after more events, the ring must equal the
// unbounded fold and the coarse tail its resampling.
func TestLongEventMatchesUnboundedFold(t *testing.T) {
	const window = 0.25
	base := synthLog(4, 300, 5).Events()
	long := func(start, windows float64) trace.Event {
		return trace.Event{Rank: 2, Region: "halo", Activity: "wait", Start: start, End: start + windows*window}
	}
	var tail []trace.Event
	for _, e := range base {
		e.Start, e.End = e.Start+1e5*window+100, e.End+1e5*window+100
		tail = append(tail, e)
	}
	for name, events := range map[string][]trace.Event{
		"first":       append([]trace.Event{long(0.1, 1e5)}, base...),
		"across ring": append(base[:len(base):len(base)], long(50.05, 1e5)),
		"into ring":   append(base[:len(base):len(base)], long(5.1, 1175)),
		"below ring":  append(base[:len(base):len(base)], long(1.1, 1000)),
	} {
		longAt := len(base)
		if name == "first" {
			longAt = 0
		}
		events = append(events, tail...)
		// Check right after the long event and at the end.
		checked := func(i int) bool { return i == longAt || i == len(events)-1 }
		opts := Options{Window: window, PerActivity: true, PerRegion: true}
		free := NewFold(opts)
		want := map[int]*Series{}
		for i, e := range events {
			free.Add(e)
			if checked(i) {
				want[i] = free.Series()
			}
		}
		for _, cap := range []int{16, 64, DefaultWindowCap} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, cap), func(t *testing.T) {
				opts.WindowCap = cap
				bounded := NewFold(opts)
				for i, e := range events {
					bounded.Add(e)
					if checked(i) {
						got := bounded.Series()
						if len(got.Windows) > cap || len(got.Coarse) > cap {
							t.Fatalf("event %d: ring holds %d windows, coarse tail %d", i, len(got.Windows), len(got.Coarse))
						}
						checkBounded(t, want[i], got)
					}
				}
			})
		}
	}
}

// TestLongEventRoundingEmptyEndWindows: floating-point rounding can put
// an event's start in the window below the one it begins in
// (floor(22453.199999999997 / 0.7) = 32075, yet 32076 · 0.7 ≤ start),
// and its end in the window above the one it ends in (floor(1.7 / 0.1)
// = 17, yet 17 · 0.1 > 1.7). The per-window clip skips such an empty
// window; the capped fold must neither count an event there nor count
// it among the ring windows it keeps, whether the event comes first or
// the ring already holds older windows.
func TestLongEventRoundingEmptyEndWindows(t *testing.T) {
	for name, tc := range map[string]struct {
		window, start, end float64
		before             []float64 // starts of short events folded first
	}{
		"start":          {window: 0.7, start: 22453.199999999997, end: 22453.199999999997 + 70},
		"end first":      {window: 0.1, start: 0, end: 1.7},
		"end after ring": {window: 0.1, start: 0, end: 1.7, before: []float64{-1.05, -0.85, -0.55}},
	} {
		t.Run(name, func(t *testing.T) {
			first, last := math.Floor(tc.start/tc.window), math.Floor(tc.end/tc.window)
			if (first+1)*tc.window > tc.start && last*tc.window <= tc.end {
				t.Fatalf("no end window rounds empty")
			}
			var lg trace.Log
			for _, s := range tc.before {
				if err := lg.Append(trace.Event{Rank: 1, Region: "r", Activity: "a", Start: s, End: s + 0.05}); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Append(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: tc.start, End: tc.end}); err != nil {
				t.Fatal(err)
			}
			opts := Options{Window: tc.window, PerActivity: true, PerRegion: true}
			free := foldLog(t, &lg, opts)
			opts.WindowCap = 16
			checkBounded(t, free, foldLog(t, &lg, opts))
		})
	}
}

// TestCapOneAcrossTimeZero: decimation never merges a window before
// time zero with one after it, so under cap 1 a coarse tail spanning
// zero can only shrink to two windows. The fold and BoundSeries must
// stop there instead of doubling the coarse width forever.
func TestCapOneAcrossTimeZero(t *testing.T) {
	var lg trace.Log
	for _, start := range []float64{-3.5, -1.5, 0.5, 2.5, 4.5, 6.5} {
		if err := lg.Append(trace.Event{Rank: 0, Region: "r", Activity: "a", Start: start, End: start + 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	free := foldLog(t, &lg, Options{Window: 1})
	bounded := foldLog(t, &lg, Options{Window: 1, WindowCap: 1})
	checkBounded(t, free, bounded)
	if len(bounded.Windows) != 1 || len(bounded.Coarse) != 2 {
		t.Fatalf("fold: ring %d, coarse %d windows; want 1 and 2", len(bounded.Windows), len(bounded.Coarse))
	}
	if b := BoundSeries(free, 1); len(b.Windows) != 1 || len(b.Coarse) != 2 {
		t.Fatalf("BoundSeries: ring %d, coarse %d windows; want 1 and 2", len(b.Windows), len(b.Coarse))
	}
}

// FuzzFoldDimensions checks both index-keyed properties on generated
// logs, whose events come in random order and include instants,
// boundary-aligned starts, ends on a tenth of a second and events
// spanning hundreds of windows: the unbounded fold against Log.Window
// (checkDimensions), and a fold with a random cap against the unbounded
// one (checkBounded), at the power-of-two width and at a decimal one
// (0.1, 0.3 or 0.7) whose window bounds round.
func FuzzFoldDimensions(f *testing.F) {
	f.Add(uint64(1), 64, uint8(8), uint8(2))
	f.Add(uint64(42), 300, uint8(3), uint8(0))
	f.Add(uint64(7), 200, uint8(40), uint8(3))
	f.Add(uint64(90), 154, uint8(0), uint8(0)) // cap 1 across time zero
	f.Fuzz(func(t *testing.T, seed uint64, n int, capSeed, windowExp uint8) {
		if n <= 0 || n > 400 {
			t.Skip()
		}
		window := math.Ldexp(1, -int(windowExp%4)) // 1, 1/2, 1/4 or 1/8: exact bounds
		rng := seed | 1                            // xorshift's state must be nonzero
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return float64(rng%1_000_000) / 1_000_000
		}
		regions := []string{"solve", "exchange", "dump"}
		activities := []string{"compute", "comm", "io", "wait"}
		var lg trace.Log
		for i := 0; i < n; i++ {
			start, dur := next()*40-5, next()*4
			switch rng % 6 {
			case 0:
				dur = 0
			case 1:
				start = math.Floor(start/window) * window
			case 2:
				dur *= 25
			case 3:
				dur = math.Ceil((start+dur*25)*10)/10 - start
			}
			e := trace.Event{
				Rank:     int(rng>>4) % 7,
				Region:   regions[(rng>>8)%3],
				Activity: activities[(rng>>16)%4],
				Start:    start,
				End:      start + dur,
			}
			if err := lg.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		checkDimensions(t, &lg, window)
		for _, w := range []float64{window, []float64{0.1, 0.3, 0.7}[windowExp/4%3]} {
			opts := Options{Window: w, TrackActivities: true, PerActivity: true, PerRegion: true}
			free := foldLog(t, &lg, opts)
			opts.WindowCap = 1 + int(capSeed%64)
			checkBounded(t, free, foldLog(t, &lg, opts))
		}
	})
}
