package main

import (
	"fmt"
	"math"

	"loadimb/internal/core"
	"loadimb/internal/monitor"
	"loadimb/internal/trace"
)

// tolerance is the relative agreement the ground-truth gate demands of
// cube cells and ID_P values.
const tolerance = 1e-9

// Truth is the producers' own account of what they sent, kept by the
// benchmark and never read back from the system under test: per
// (region, activity, rank) busy-time sums under the names and rank slots
// the events have at the federation root, the event count, and the number
// of (event, window) incidences the window series must count.
type Truth struct {
	Regions, Activities []string
	rIdx, aIdx          map[string]int
	sums                [][]*[]float64 // [region][activity] -> per-rank sums
	Events, Incidences  uint64
}

// NewTruth returns an empty ground truth.
func NewTruth() *Truth {
	return &Truth{rIdx: map[string]int{}, aIdx: map[string]int{}}
}

// cell returns the per-rank sum vector of (region, activity), creating it.
func (t *Truth) cell(region, activity string) *[]float64 {
	i, ok := t.rIdx[region]
	if !ok {
		i = len(t.Regions)
		t.rIdx[region] = i
		t.Regions = append(t.Regions, region)
		t.sums = append(t.sums, make([]*[]float64, len(t.Activities)))
	}
	j, ok := t.aIdx[activity]
	if !ok {
		j = len(t.Activities)
		t.aIdx[activity] = j
		t.Activities = append(t.Activities, activity)
		for k := range t.sums {
			t.sums[k] = append(t.sums[k], nil)
		}
	}
	if t.sums[i][j] == nil {
		t.sums[i][j] = new([]float64)
	}
	return t.sums[i][j]
}

// addTo accounts one event of the given cell.
func (t *Truth) addTo(c *[]float64, rank int, start, end float64) {
	for len(*c) <= rank {
		*c = append(*c, 0)
	}
	(*c)[rank] += end - start
	t.Events++
	t.Incidences += uint64(incidences(start, end))
}

// Add accounts one event under the given region prefix and rank offset.
func (t *Truth) Add(e trace.Event, prefix string, rankOffset int) {
	t.addTo(t.cell(prefix+e.Region, e.Activity), e.Rank+rankOffset, e.Start, e.End)
}

// value is the truth of one cube cell; 0 for cells never sent.
func (t *Truth) value(region, activity string, rank int) float64 {
	i, ok := t.rIdx[region]
	if !ok {
		return 0
	}
	j, ok := t.aIdx[activity]
	if !ok || t.sums[i][j] == nil || rank >= len(*t.sums[i][j]) {
		return 0
	}
	return (*t.sums[i][j])[rank]
}

// Cube lays the truth out in the given dimension orders: the prescribed
// cube the root must reproduce.
func (t *Truth) Cube(regions, activities []string, procs int) (*trace.Cube, error) {
	c, err := trace.NewCube(regions, activities, procs)
	if err != nil {
		return nil, err
	}
	for i, r := range regions {
		for j, a := range activities {
			for p := 0; p < procs; p++ {
				if v := t.value(r, a, p); v != 0 {
					if err := c.Set(i, j, p, v); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return c, nil
}

// incidences counts the windows an event adds to, under the window fold's
// half-open clipping: a positive-length event counts once in every window
// it overlaps with positive length; a zero-length one in the window that
// strictly contains its instant. Written independently of the fold.
func incidences(start, end float64) int {
	first := int(math.Floor(start / window))
	if end == start {
		if start == float64(first)*window {
			return 0
		}
		return 1
	}
	last := int(math.Floor(end / window))
	if end == float64(last)*window && last > first {
		last--
	}
	n := 0
	for w := first; w <= last; w++ {
		lo, hi := math.Max(start, float64(w)*window), math.Min(end, float64(w+1)*window)
		if hi > lo {
			n++
		}
	}
	return n
}

// agree reports agreement within the gate's relative tolerance.
func agree(got, want float64) bool {
	return math.Abs(got-want) <= tolerance*math.Max(math.Abs(want), math.Abs(got)) || got == want
}

// Gate checks a root snapshot against the ground truth. It fails unless
//   - the root's window series counts every event sent (as window
//     incidences: an event spanning windows counts in each);
//   - every root cube cell matches the truth within 1e-9 relative, and
//     the root holds every cell the truth has;
//   - the root's ID_P of every (region, rank) matches core.Analyze of the
//     prescribed cube within 1e-9 (absolute: ID_P is a bounded index).
func Gate(snap *monitor.Snapshot, t *Truth) error {
	if snap == nil || snap.Cube == nil {
		return fmt.Errorf("gate: root has no cube")
	}
	if got := windowEvents(snap); got != t.Incidences {
		return fmt.Errorf("gate: root window series counts %d events, producers sent %d (%d events)", got, t.Incidences, t.Events)
	}
	c := snap.Cube
	regions, activities := c.Regions(), c.Activities()
	for i, r := range regions {
		for j, a := range activities {
			for p := 0; p < c.NumProcs(); p++ {
				got, err := c.At(i, j, p)
				if err != nil {
					return err
				}
				if want := t.value(r, a, p); !agree(got, want) {
					return fmt.Errorf("gate: root cell (%s, %s, rank %d) = %.17g, sent %.17g", r, a, p, got, want)
				}
			}
		}
	}
	for i, r := range t.Regions {
		for j, a := range t.Activities {
			if t.sums[i][j] == nil {
				continue
			}
			for p, v := range *t.sums[i][j] {
				if v != 0 && (c.RegionIndex(r) < 0 || c.ActivityIndex(a) < 0 || p >= c.NumProcs()) {
					return fmt.Errorf("gate: root lacks cell (%s, %s, rank %d) = %.17g", r, a, p, v)
				}
			}
		}
	}
	prescribed, err := t.Cube(regions, activities, c.NumProcs())
	if err != nil {
		return err
	}
	want, err := core.Analyze(prescribed, core.AnalyzeOptions{})
	if err != nil {
		return fmt.Errorf("gate: analyzing prescribed cube: %w", err)
	}
	views, err := snap.Views()
	if err != nil || views == nil {
		return fmt.Errorf("gate: root views: %v", err)
	}
	for i, row := range want.Processors.ByRegion {
		for p, w := range row {
			g := views.Processors.ByRegion[i][p]
			// ID_P is a bounded index, near zero on balanced regions, so
			// the tolerance is absolute here.
			if g.Defined != w.Defined || math.Abs(g.ID-w.ID) > tolerance {
				return fmt.Errorf("gate: root ID_P(%s, rank %d) = %v/%.17g, prescribed %v/%.17g",
					regions[i], p, g.Defined, g.ID, w.Defined, w.ID)
			}
		}
	}
	return nil
}

// windowEvents is the root's count of (event, window) incidences over the
// full-resolution ring and the decimated tail.
func windowEvents(snap *monitor.Snapshot) uint64 {
	if snap == nil || snap.Series == nil {
		return 0
	}
	var n uint64
	for _, w := range snap.Series.Windows {
		n += uint64(w.Events)
	}
	for _, w := range snap.Series.Coarse {
		n += uint64(w.Events)
	}
	return n
}
