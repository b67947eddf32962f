package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"loadimb/internal/mpi"
	"loadimb/internal/stats"
	"loadimb/internal/trace"
	"loadimb/internal/workload"
)

// window is the temporal window width of the daemon config (imbamon
// -window 5); the generator aligns its steps to it.
const window = 5.0

// fill is the share of a step the busiest rank spends busy; the slack keeps
// every event strictly inside its step, so no event straddles a window.
const fill = 0.75

// Shape fixes everything about a generated stream except the values drawn
// from the seed: two seeds with one Shape give streams of equal length,
// names and phase boundaries.
type Shape struct {
	Procs          int // ranks of the job
	Regions        int // code regions per rank and step
	StepsPerWindow int // steps per 5 s window; a power of two keeps step times exact
	// WindowsPerPhase is how many windows each imbalance profile lasts.
	// Phase detection's automatic penalty nearly ties splitting and not
	// splitting a cycle of 4-window phases of piecewise-constant ID_P,
	// so shapes use 8 to keep the boundaries decisive.
	WindowsPerPhase int
}

// Phase is one entry of the prescribed imbalance schedule.
type Phase struct {
	Profile  string
	Severity float64
	// Factor[p] scales rank p's computation time; the busiest rank has 1.
	Factor []float64
	// Target is the prescribed ID_P of the phase: the Euclidean index of
	// dispersion of the per-rank busy time, from the prescription alone.
	Target float64
}

// Schedule is a seeded job: per-cell time weights and a cycle of phases
// (balanced, linear, one-hot straggler, block), each lasting
// WindowsPerPhase windows. Every step of a phase emits the same per-rank
// events, shifted in time.
type Schedule struct {
	Shape
	Regions    []string
	Activities []string
	// Weights[i][j] is cell (i, j)'s share of a balanced rank's step.
	Weights [][]float64
	Phases  []Phase
	Step    float64 // step length in virtual seconds
	// tmpl[k] is phase k's step: all ranks' events relative to the step
	// start, in time order.
	tmpl [][]trace.Event
}

// NewSchedule draws a schedule of the given shape from the seed.
func NewSchedule(shape Shape, seed uint64) (*Schedule, error) {
	if shape.Procs < 2 || shape.Regions < 1 || shape.StepsPerWindow < 1 || shape.WindowsPerPhase < 1 {
		return nil, fmt.Errorf("gen: bad shape %+v", shape)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6c6f6164696d62))
	sc := &Schedule{
		Shape:      shape,
		Activities: mpi.Activities(),
		Step:       window / float64(shape.StepsPerWindow),
	}
	for i := 0; i < shape.Regions; i++ {
		sc.Regions = append(sc.Regions, fmt.Sprintf("loop %d", i+1))
	}
	total := 0.0
	sc.Weights = make([][]float64, shape.Regions)
	for i := range sc.Weights {
		sc.Weights[i] = make([]float64, len(sc.Activities))
		for j := range sc.Weights[i] {
			w := 0.5 + rng.Float64()
			if sc.Activities[j] == mpi.ActComputation {
				w *= 4 // computation dominates, as in the paper's CFD run
			}
			sc.Weights[i][j] = w
			total += w
		}
	}
	for i := range sc.Weights {
		for j := range sc.Weights[i] {
			sc.Weights[i][j] /= total
		}
	}
	// The severity ranges keep the four phases' ID_P levels apart, at 8
	// and at 128 ranks alike, each at least 1.3 times the one before (see
	// TestPhasesAreDistinct), so phase detection finds every boundary
	// whatever the seed.
	profiles := []struct {
		prof   workload.Profile
		lo, hi float64
	}{
		{workload.BalancedProfile{}, 0, 0},
		{workload.LinearProfile{}, 0.1, 0.15},
		{workload.OneHotProfile{Proc: rng.IntN(shape.Procs)}, 0.15, 0.2},
		{workload.BlockProfile{High: max(1, shape.Procs/4)}, 0.8, 0.9},
	}
	for _, p := range profiles {
		sev := p.lo + (p.hi-p.lo)*rng.Float64()
		shares, err := p.prof.Shares(shape.Procs, sev)
		if err != nil {
			return nil, err
		}
		top := 0.0
		for _, s := range shares {
			top = max(top, s)
		}
		ph := Phase{Profile: p.prof.Name(), Severity: sev, Factor: make([]float64, shape.Procs)}
		for r, s := range shares {
			ph.Factor[r] = s / top
		}
		ph.Target, err = stats.EuclideanFromBalance(sc.prescribedBusy(ph))
		if err != nil {
			return nil, err
		}
		sc.Phases = append(sc.Phases, ph)
		sc.tmpl = append(sc.tmpl, sc.template(ph))
	}
	return sc, nil
}

// duration is the prescribed time of cell (i, j) on rank r in one step.
func (sc *Schedule) duration(ph Phase, i, j, r int) float64 {
	d := sc.Step * fill * sc.Weights[i][j]
	if sc.Activities[j] == mpi.ActComputation {
		d *= ph.Factor[r]
	}
	return d
}

// prescribedBusy is each rank's busy time in one step of the phase,
// computed from the prescription, not from the emitted events.
func (sc *Schedule) prescribedBusy(ph Phase) []float64 {
	busy := make([]float64, sc.Procs)
	for r := range busy {
		for i := range sc.Weights {
			for j := range sc.Weights[i] {
				busy[r] += sc.duration(ph, i, j, r)
			}
		}
	}
	return busy
}

// template lays each rank's cells end to end from the step start and
// merges the ranks into one time-ordered stream, so consecutive events
// come from different ranks, regions and activities.
func (sc *Schedule) template(ph Phase) []trace.Event {
	var out []trace.Event
	for r := 0; r < sc.Procs; r++ {
		cursor := 0.0
		for i, region := range sc.Regions {
			for j, act := range sc.Activities {
				e := trace.Event{Rank: r, Region: region, Activity: act, Start: cursor}
				e.End = cursor + sc.duration(ph, i, j, r)
				cursor = e.End
				out = append(out, e)
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// StepsPerPhase is the number of steps each phase lasts.
func (sc *Schedule) StepsPerPhase() int { return sc.StepsPerWindow * sc.WindowsPerPhase }

// PhaseOf returns the schedule phase of step s.
func (sc *Schedule) PhaseOf(s int) int { return (s / sc.StepsPerPhase()) % len(sc.Phases) }

// Stream emits the schedule's events of the ranks [lo, hi): one
// producer's share of the job.
type Stream struct {
	sc   *Schedule
	tmpl [][]trace.Event
}

// Stream returns the producer stream of ranks [lo, hi).
func (sc *Schedule) Stream(lo, hi int) *Stream {
	st := &Stream{sc: sc}
	for _, t := range sc.tmpl {
		var sub []trace.Event
		for _, e := range t {
			if e.Rank >= lo && e.Rank < hi {
				sub = append(sub, e)
			}
		}
		st.tmpl = append(st.tmpl, sub)
	}
	return st
}

// EventsPerStep is the number of events one step of the stream emits.
func (st *Stream) EventsPerStep() int { return len(st.tmpl[0]) }

// AppendStep appends step s's events to dst: the phase template shifted
// to the step's start time.
func (st *Stream) AppendStep(dst []trace.Event, s int) []trace.Event {
	t0 := float64(s) * st.sc.Step
	for _, e := range st.tmpl[st.sc.PhaseOf(s)] {
		e.Start += t0
		e.End += t0
		dst = append(dst, e)
	}
	return dst
}

// AddTo folds steps [from, to) of the stream into the ground truth,
// regenerating the exact timestamps the producer sent. Regions are
// prefixed with prefix and ranks offset by rankOffset, the names and rank
// slots the stream has at the federation root.
func (st *Stream) AddTo(t *Truth, from, to int, prefix string, rankOffset int) {
	cells := make([][]*[]float64, len(st.tmpl))
	for k, tmpl := range st.tmpl {
		cells[k] = make([]*[]float64, len(tmpl))
		for n, e := range tmpl {
			cells[k][n] = t.cell(prefix+e.Region, e.Activity)
		}
	}
	for s := from; s < to; s++ {
		t0 := float64(s) * st.sc.Step
		k := st.sc.PhaseOf(s)
		for n, e := range st.tmpl[k] {
			start, end := e.Start+t0, e.End+t0
			t.addTo(cells[k][n], e.Rank+rankOffset, start, end)
		}
	}
}
