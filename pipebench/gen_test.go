package main

import (
	"bytes"
	"math"
	"testing"

	"loadimb/internal/core"
	"loadimb/internal/stats"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
)

// cycleSteps is one full schedule cycle of a shape.
func cycleSteps(sh Shape) int { return sh.StepsPerWindow * sh.WindowsPerPhase * 4 }

// testShapes are the workloads' job shapes with fewer steps per window:
// a full cycle of the ingest job is 15M events, and the properties under
// test do not depend on the step count.
var testShapes = []Shape{
	{Procs: ingestShape.Procs, Regions: ingestShape.Regions, StepsPerWindow: 2, WindowsPerPhase: ingestShape.WindowsPerPhase},
	fleetShape,
}

// wireBytes encodes the first steps of a stream on the wire.
func wireBytes(t *testing.T, st *Stream, steps int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := tracefmt.NewWireEncoder(&buf)
	for s := 0; s < steps; s++ {
		if err := enc.EncodeBatch(st.AppendStep(nil, s)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func mustSchedule(t *testing.T, sh Shape, seed uint64) *Schedule {
	t.Helper()
	sc, err := NewSchedule(sh, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSameSeedSameStream(t *testing.T) {
	for _, sh := range testShapes {
		a := wireBytes(t, mustSchedule(t, sh, 7).Stream(0, sh.Procs), cycleSteps(sh))
		b := wireBytes(t, mustSchedule(t, sh, 7).Stream(0, sh.Procs), cycleSteps(sh))
		if !bytes.Equal(a, b) {
			t.Fatalf("shape %+v: seed 7 gave two different streams", sh)
		}
	}
}

func TestOtherSeedSameShape(t *testing.T) {
	sh := fleetShape
	a, b := mustSchedule(t, sh, 7), mustSchedule(t, sh, 8)
	if bytes.Equal(wireBytes(t, a.Stream(0, sh.Procs), cycleSteps(sh)), wireBytes(t, b.Stream(0, sh.Procs), cycleSteps(sh))) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	sa, sb := a.Stream(0, sh.Procs), b.Stream(0, sh.Procs)
	for s := 0; s < cycleSteps(sh); s++ {
		ea, eb := sa.AppendStep(nil, s), sb.AppendStep(nil, s)
		if len(ea) != len(eb) {
			t.Fatalf("step %d: %d events vs %d", s, len(ea), len(eb))
		}
		if a.PhaseOf(s) != b.PhaseOf(s) {
			t.Fatalf("step %d: phases differ", s)
		}
	}
	for k := range a.Phases {
		if a.Phases[k].Profile != b.Phases[k].Profile {
			t.Fatalf("phase %d: profile %s vs %s", k, a.Phases[k].Profile, b.Phases[k].Profile)
		}
	}
}

// cycleLog generates one schedule cycle of all ranks into a log.
func cycleLog(t *testing.T, sc *Schedule) *trace.Log {
	t.Helper()
	var lg trace.Log
	st := sc.Stream(0, sc.Procs)
	for s := 0; s < cycleSteps(sc.Shape); s++ {
		for _, e := range st.AppendStep(nil, s) {
			if incidences(e.Start, e.End) != 1 {
				t.Fatalf("step %d: event %+v straddles a window", s, e)
			}
			if err := lg.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &lg
}

// TestPhasesHitTargets folds one cycle offline with temporal.FoldLog and
// checks every window and every phase against the prescribed ID_P; and
// checks each phase's cube and core ID_P against the cube prescribed
// cell by cell.
func TestPhasesHitTargets(t *testing.T) {
	for _, sh := range testShapes {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mustSchedule(t, sh, seed)
			lg := cycleLog(t, sc)
			ser, err := temporal.FoldLog(lg, temporal.Options{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			if len(ser.Windows) != sh.WindowsPerPhase*len(sc.Phases) {
				t.Fatalf("%d windows, want %d", len(ser.Windows), sh.WindowsPerPhase*len(sc.Phases))
			}
			phaseBusy := make([][]float64, len(sc.Phases))
			for _, w := range ser.Windows {
				k := w.Index / sh.WindowsPerPhase
				id, err := stats.EuclideanFromBalance(w.ProcSeconds)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(id-sc.Phases[k].Target) > 1e-9 {
					t.Fatalf("seed %d window %d (%s): ID_P %.15g, prescribed %.15g", seed, w.Index, sc.Phases[k].Profile, id, sc.Phases[k].Target)
				}
				if phaseBusy[k] == nil {
					phaseBusy[k] = make([]float64, len(w.ProcSeconds))
				}
				for p, v := range w.ProcSeconds {
					phaseBusy[k][p] += v
				}
			}
			for k, busy := range phaseBusy {
				id, err := stats.EuclideanFromBalance(busy)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(id-sc.Phases[k].Target) > 1e-9 {
					t.Fatalf("seed %d phase %d (%s): ID_P %.15g, prescribed %.15g", seed, k, sc.Phases[k].Profile, id, sc.Phases[k].Target)
				}
			}
			checkPhaseCubes(t, sc, lg)
		}
	}
}

// checkPhaseCubes aggregates each phase's events and compares the cube and
// its core.Analyze ID_P with the prescription.
func checkPhaseCubes(t *testing.T, sc *Schedule, lg *trace.Log) {
	t.Helper()
	steps := float64(sc.StepsPerPhase())
	for k, ph := range sc.Phases {
		from, to := float64(k)*steps*sc.Step, float64(k+1)*steps*sc.Step
		var sub trace.Log
		lg.Each(func(e trace.Event) {
			if e.Start >= from && e.End <= to {
				_ = sub.Append(e)
			}
		})
		got, err := sub.Aggregate(sc.Regions, sc.Activities)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.NewCube(sc.Regions, sc.Activities, sc.Procs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sc.Regions {
			for j := range sc.Activities {
				for r := 0; r < sc.Procs; r++ {
					_ = want.Set(i, j, r, steps*sc.duration(ph, i, j, r))
					g, _ := got.At(i, j, r)
					w, _ := want.At(i, j, r)
					if !agree(g, w) && math.Abs(g-w) > 1e-12 {
						t.Fatalf("phase %d cell (%d,%d,%d): %.17g, prescribed %.17g", k, i, j, r, g, w)
					}
				}
			}
		}
		ga, err := core.Analyze(got, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wa, err := core.Analyze(want, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range wa.Processors.ByRegion {
			for r, w := range row {
				if g := ga.Processors.ByRegion[i][r]; g.Defined != w.Defined || math.Abs(g.ID-w.ID) > 1e-9 {
					t.Fatalf("phase %d region %d rank %d: ID_P %.15g, prescribed %.15g", k, i, r, g.ID, w.ID)
				}
			}
		}
	}
}

// TestPhasesAreDistinct checks the schedule's ID_P levels stay apart for
// any seed: phase detection must see every boundary.
func TestPhasesAreDistinct(t *testing.T) {
	lowest := math.Inf(1)
	for _, sh := range []Shape{ingestShape, fleetShape} {
		for seed := uint64(1); seed <= 50; seed++ {
			sc := mustSchedule(t, sh, seed)
			if sc.Phases[0].Target > 1e-12 {
				t.Fatalf("balanced phase has ID_P %g", sc.Phases[0].Target)
			}
			for k := 2; k < len(sc.Phases); k++ {
				ratio := sc.Phases[k].Target / sc.Phases[k-1].Target
				lowest = math.Min(lowest, ratio)
				if ratio < 1.3 {
					t.Fatalf("procs %d seed %d: phase %s ID_P %g is only %.2fx phase %s's",
						sh.Procs, seed, sc.Phases[k].Profile, sc.Phases[k].Target, ratio, sc.Phases[k-1].Profile)
				}
			}
		}
	}
	t.Logf("smallest ratio between consecutive ID_P levels: %.2f", lowest)
}
