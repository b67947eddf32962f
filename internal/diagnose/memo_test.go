package diagnose

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"loadimb/internal/temporal"
)

// sameJSON fails unless got and want marshal to identical bytes.
func sameJSON(t *testing.T, what string, got, want *Report) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s: memoized report differs from Diagnose\n got: %s\nwant: %s", what, g, w)
	}
}

// entries returns the number of distinct keys the memo holds.
func (m *Memo) entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.last)
	for k := range m.prev {
		if _, ok := m.last[k]; !ok {
			n++
		}
	}
	return n
}

// shiftedSeries returns ser with every window moved later by shift
// windows, behind a leading busy phase of its own, together with the
// phases of ser moved along and the leading phase prepended.
func shiftedSeries(ser *temporal.Series, phases []temporal.Phase, shift int) (*temporal.Series, []temporal.Phase) {
	out := &temporal.Series{Window: ser.Window, Procs: ser.Procs}
	for w := 0; w < shift; w++ {
		v := temporal.WindowVector{Index: w, Events: ser.Procs, ProcSeconds: make([]float64, ser.Procs),
			PerActivity: map[string][]float64{"computation": make([]float64, ser.Procs)},
			PerRegion:   map[string][]float64{"solve": make([]float64, ser.Procs)}}
		for p := range v.ProcSeconds {
			t := 0.1 + 0.05*float64(p%3)
			v.ProcSeconds[p], v.PerActivity["computation"][p], v.PerRegion["solve"][p] = t, t, t
		}
		out.Windows = append(out.Windows, v)
	}
	for _, v := range ser.Windows {
		v.Index += shift
		out.Windows = append(out.Windows, v)
	}
	off := float64(shift) * ser.Window
	moved := []temporal.Phase{{FirstWindow: 0, LastWindow: shift - 1, Start: 0, End: off, Label: temporal.LabelQuiet}}
	for _, ph := range phases {
		ph.FirstWindow += shift
		ph.LastWindow += shift
		ph.Start += off
		ph.End += off
		moved = append(moved, ph)
	}
	return out, moved
}

// TestMemoReusesPhaseUnderNewOrdinal: a phase whose fingerprints recur
// at a later ordinal and later bounds is not re-clustered — its cohorts
// are the cached ones — yet the report, findings' phase, bounds and
// summaries included, is byte-identical to Diagnose's.
func TestMemoReusesPhaseUnderNewOrdinal(t *testing.T) {
	ser, phases := stragglerSeries(t, 16, 5, 0.25)
	var m Memo
	first := m.Diagnose(ser, phases, Options{})
	sameJSON(t, "first call", first, Diagnose(ser, phases, Options{}))

	moved, movedPhases := shiftedSeries(ser, phases, 3)
	second := m.Diagnose(moved, movedPhases, Options{})
	sameJSON(t, "shifted call", second, Diagnose(moved, movedPhases, Options{}))
	if len(second.Phases) != len(first.Phases)+1 {
		t.Fatalf("%d phases after the shift, want %d", len(second.Phases), len(first.Phases)+1)
	}
	for i, pd := range first.Phases {
		got := second.Phases[i+1]
		if &got.Cohorts[0] != &pd.Cohorts[0] {
			t.Errorf("phase %d was re-clustered as phase %d instead of reused", pd.Phase, got.Phase)
		}
	}
	found := false
	for _, f := range second.Findings {
		if f.Rank == 5 && f.Phase == len(second.Phases) {
			found = true
			if want := fmt.Sprintf("in phase %d ", f.Phase); !strings.Contains(f.Summary, want) {
				t.Errorf("summary %q does not name phase %d", f.Summary, f.Phase)
			}
		}
	}
	if !found {
		t.Fatalf("straggler finding missing from the reused phase: %+v", second.Findings)
	}

	// Different labels are different inputs: no reuse, labels rendered.
	labels := make([]string, 16)
	for p := range labels {
		labels[p] = fmt.Sprintf("job/%d", p)
	}
	third := m.Diagnose(moved, movedPhases, Options{RankLabels: labels})
	sameJSON(t, "labeled call", third, Diagnose(moved, movedPhases, Options{RankLabels: labels}))
	if &third.Phases[1].Cohorts[0] == &second.Phases[1].Cohorts[0] {
		t.Error("a phase was reused across different rank labels")
	}
	// So are different options.
	for _, opts := range []Options{{RankLabels: labels, MaxCohorts: 1}, {RankLabels: labels, TopDims: 1}} {
		sameJSON(t, fmt.Sprintf("options %+v", opts), m.Diagnose(moved, movedPhases, opts), Diagnose(moved, movedPhases, opts))
	}
}

// TestMemoRetainsLastTwoCalls: the memo holds at most the entries its
// last two calls used, so a long-running publisher's cache stays the
// size of two generations of phases.
func TestMemoRetainsLastTwoCalls(t *testing.T) {
	var m Memo
	var counts []int
	for call := 0; call < 6; call++ {
		// Each call sees a different straggler, so every phase with a
		// finding is a fresh key; the balanced phase recurs.
		ser, phases := stragglerSeries(t, 8, call%8, 0.1+0.05*float64(call))
		m.Diagnose(ser, phases, Options{})
		counts = append(counts, len(phases))
		limit := counts[len(counts)-1]
		if len(counts) > 1 {
			limit += counts[len(counts)-2]
		}
		if got := m.entries(); got > limit {
			t.Fatalf("call %d: memo holds %d entries, its last two calls used at most %d", call, got, limit)
		}
	}
	// A call that reuses nothing evicts everything older than the call
	// before it.
	ser, phases := stragglerSeries(t, 12, 3, 0.4)
	m.Diagnose(ser, phases, Options{})
	m.Diagnose(ser, phases, Options{MaxCohorts: 2})
	if got, want := m.entries(), 2*len(phases); got > want {
		t.Fatalf("memo holds %d entries after two unrelated calls, want at most %d", got, want)
	}
}

// FuzzDiagnoseMemo feeds one memo a random series through random
// successive edits — appended windows, late busy time into old windows,
// evicted windows, moved phase boundaries, relabeled and added ranks,
// changed options —
// and requires its report after every edit to be byte-identical to
// Diagnose on the same input, with the memo holding no more than its
// last two calls' phases.
func FuzzDiagnoseMemo(f *testing.F) {
	f.Add(uint16(1), []byte{0, 0, 0, 0, 3, 0, 1, 0, 2, 4, 0, 5, 6, 0, 7, 0, 7})
	f.Add(uint16(0xBEEF), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(0x1234), []byte{3, 3, 0, 1, 1, 1, 2, 2, 2, 4, 4, 6, 6, 5})
	f.Add(uint16(7), []byte{})
	f.Fuzz(func(t *testing.T, seed uint16, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		state := uint32(seed) | 1
		next := func() uint32 {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			return state
		}
		// Values on a coarse grid, so edits and equal-looking windows
		// recur and the memo is exercised on hits as well as misses.
		val := func() float64 { return float64(next()%8) / 16 }
		ser := &temporal.Series{Window: 0.5, Procs: 3}
		acts := []string{"comp", "wait"}
		addWindow := func() {
			idx := 0
			if n := len(ser.Windows); n > 0 {
				idx = ser.Windows[n-1].Index + 1 + int(next()%2)
			}
			v := temporal.WindowVector{Index: idx, Events: 1, ProcSeconds: make([]float64, ser.Procs),
				PerActivity: map[string][]float64{}}
			for _, a := range acts {
				v.PerActivity[a] = make([]float64, ser.Procs)
			}
			for p := 0; p < ser.Procs; p++ {
				for _, a := range acts {
					x := val()
					v.PerActivity[a][p] += x
					v.ProcSeconds[p] += x
				}
			}
			ser.Windows = append(ser.Windows, v)
		}
		cuts := map[int]bool{}
		var labels []string
		var opts Options
		var m Memo
		var prevPhases int
		for step := 0; step <= len(ops); step++ {
			if step > 0 {
				switch ops[step-1] % 8 {
				case 0: // the run advances
					addWindow()
				case 1: // a late event lands in an older window
					if n := len(ser.Windows); n > 0 {
						v := &ser.Windows[int(next())%n]
						p, a := int(next())%ser.Procs, acts[next()%2]
						x := val() + 1.0/16
						v.PerActivity[a][p] += x
						v.ProcSeconds[p] += x
					}
				case 2: // the oldest window leaves the ring
					if len(ser.Windows) > 0 {
						ser.Windows = ser.Windows[1:]
					}
				case 3: // a phase boundary appears
					if n := len(ser.Windows); n > 0 {
						cuts[ser.Windows[int(next())%n].Index] = true
					}
				case 4: // the earliest phase boundary moves or vanishes
					if len(cuts) > 0 {
						c := math.MaxInt
						for k := range cuts {
							c = min(c, k)
						}
						delete(cuts, c)
						if next()%2 == 0 {
							cuts[c+1] = true
						}
					}
				case 5: // ranks get (new) labels
					labels = make([]string, ser.Procs-int(next()%2))
					for p := range labels {
						labels[p] = fmt.Sprintf("j%d/%d", next()%2, p)
					}
				case 6: // a new rank appears
					ser.Procs++
					for i := range ser.Windows {
						v := &ser.Windows[i]
						v.ProcSeconds = append(v.ProcSeconds, 0)
						for _, a := range acts {
							v.PerActivity[a] = append(v.PerActivity[a], 0)
						}
					}
				case 7: // the options change
					opts.MaxCohorts = int(next() % 4)
					opts.Threshold = float64(next() % 4)
					opts.TopDims = int(next() % 3)
				}
			}
			phases := cutPhases(ser, cuts)
			opts.RankLabels = labels
			sameJSON(t, fmt.Sprintf("step %d", step), m.Diagnose(ser, phases, opts), Diagnose(ser, phases, opts))
			if len(phases) > 0 && ser.Procs >= 2 {
				if got := m.entries(); got > len(phases)+prevPhases {
					t.Fatalf("step %d: memo holds %d entries, last two calls had %d+%d phases", step, got, len(phases), prevPhases)
				}
				prevPhases = len(phases)
			}
		}
	})
}

// cutPhases splits the series' windows into phases at the cut indices.
func cutPhases(ser *temporal.Series, cuts map[int]bool) []temporal.Phase {
	var phases []temporal.Phase
	for i, v := range ser.Windows {
		if i == 0 || cuts[v.Index] {
			phases = append(phases, temporal.Phase{FirstWindow: v.Index, Start: float64(v.Index) * ser.Window,
				Label: []string{temporal.LabelQuiet, temporal.LabelHot}[len(phases)%2]})
		}
		ph := &phases[len(phases)-1]
		ph.LastWindow = v.Index
		ph.End = float64(v.Index+1) * ser.Window
		ph.Windows++
	}
	return phases
}
