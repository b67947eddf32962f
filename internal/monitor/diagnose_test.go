package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"loadimb/internal/diagnose"
	"loadimb/internal/temporal"
	"loadimb/internal/trace"
)

// scratchDiagnosis is the snapshot's diagnosis computed from scratch,
// without the publisher's memo.
func scratchDiagnosis(snap *Snapshot) *diagnose.Report {
	phases := make([]temporal.Phase, len(snap.Phases))
	for i, ps := range snap.Phases {
		phases[i] = ps.Phase()
	}
	return diagnose.Diagnose(snap.Series, phases, diagnose.Options{RankLabels: snap.RankLabels})
}

// sameDiagnosis fails unless the reports marshal to identical bytes.
func sameDiagnosis(t *testing.T, what string, got, want *diagnose.Report) {
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
		t.Fatalf("%s: memoized diagnosis differs from Diagnose\n got: %s\nwant: %s", what, g, w)
	}
}

// recordStep records one window of an 8-rank run whose imbalance
// profile changes every 6 windows, so the live segmentation finds
// several phases and moves their boundaries as the run grows.
func recordStep(c *Collector, w int) {
	for p := 0; p < 8; p++ {
		comp := 0.3
		switch (w / 6) % 3 {
		case 1:
			comp += 0.05 * float64(p)
		case 2:
			if p == 3 {
				comp += 0.5
			}
		}
		start := float64(w)
		c.Record(trace.Event{Rank: p, Region: "solve", Activity: "computation", Start: start, End: start + comp})
		c.Record(trace.Event{Rank: p, Region: "halo", Activity: "p2p", Start: start + comp, End: start + comp + 0.1})
	}
}

// TestCollectorDiagnosisMemoMatchesScratch drives one collector through
// many snapshot generations — new windows, late events into closed
// phases, a decimating window cap — and requires each generation's
// memoized diagnosis to be byte-identical to Diagnose from scratch,
// with unchanged phases actually reused.
func TestCollectorDiagnosisMemoMatchesScratch(t *testing.T) {
	c := NewCollector(Options{Window: 1, WindowCap: 16})
	var prev *diagnose.Report
	reused, phaseCounts := 0, map[int]bool{}
	for gen := 0; gen < 60; gen++ {
		recordStep(c, gen)
		if gen%7 == 3 && gen > 8 {
			// A late event lands in a window several phases back.
			w := float64(gen - 8)
			c.Record(trace.Event{Rank: gen % 8, Region: "solve", Activity: "computation", Start: w + 0.9, End: w + 0.95})
		}
		snap := c.Snapshot()
		if snap.DiagnosisMemo == nil {
			t.Fatal("collector snapshot carries no diagnosis memo")
		}
		got := snap.Diagnosis()
		sameDiagnosis(t, fmt.Sprintf("generation %d", snap.Gen), got, scratchDiagnosis(snap))
		phaseCounts[len(got.Phases)] = true
		if prev != nil {
			reused += sharedPhases(prev, got)
		}
		prev = got
	}
	if len(c.Latest().Series.Coarse) == 0 {
		t.Error("the run never decimated; the test misses the window cap")
	}
	if len(phaseCounts) < 2 {
		t.Errorf("the phase count never changed (%v); the test misses moving boundaries", phaseCounts)
	}
	if reused == 0 {
		t.Error("no phase was ever reused across generations")
	}
}

// sharedPhases counts the phases of cur whose cohorts are prev's cached
// ones.
func sharedPhases(prev, cur *diagnose.Report) int {
	n := 0
	for _, a := range cur.Phases {
		for _, b := range prev.Phases {
			if len(a.Cohorts) > 0 && len(b.Cohorts) > 0 && &a.Cohorts[0] == &b.Cohorts[0] {
				n++
			}
		}
	}
	return n
}

// TestSnapshotDiagnosisConcurrent diagnoses two snapshots of one
// collector at once; under -race this checks the shared memo, and each
// report must still equal Diagnose from scratch.
func TestSnapshotDiagnosisConcurrent(t *testing.T) {
	c := NewCollector(Options{Window: 1})
	for w := 0; w < 20; w++ {
		recordStep(c, w)
	}
	for round := 0; round < 8; round++ {
		a := c.Snapshot()
		recordStep(c, 20+round)
		b := c.Snapshot()
		var wg sync.WaitGroup
		for _, s := range []*Snapshot{a, b} {
			wg.Add(1)
			go func(s *Snapshot) {
				defer wg.Done()
				s.Diagnosis()
			}(s)
		}
		wg.Wait()
		for _, s := range []*Snapshot{a, b} {
			sameDiagnosis(t, fmt.Sprintf("round %d generation %d", round, s.Gen), s.Diagnosis(), scratchDiagnosis(s))
		}
	}
}

// TestCollectorDropsEndBeyondWindowRange: with windowing on, an event
// ending at or past window 2^62 has no int window index. Record and
// RecordBatch must count it as dropped, not fold it into the cube while
// losing it from the window series (or filing it under a wrapped
// negative index), so received = folded + dropped holds.
func TestCollectorDropsEndBeyondWindowRange(t *testing.T) {
	events := []trace.Event{
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 1e20},
		{Rank: 1, Region: "r", Activity: "a", Start: 1e20, End: 1e20},
		{Rank: 0, Region: "r", Activity: "a", Start: 0, End: 5 * math.Exp2(62)},
		{Rank: 0, Region: "r", Activity: "a", Start: 0.5, End: 1},
		{Rank: 1, Region: "r", Activity: "a", Start: 2, End: 2},
	}
	for _, batch := range []bool{false, true} {
		c := NewCollector(Options{Window: 5})
		if batch {
			c.RecordBatch(events)
		} else {
			for _, e := range events {
				c.Record(e)
			}
		}
		snap := c.Snapshot()
		if snap.Events != 2 || snap.Dropped != 3 {
			t.Fatalf("batch=%v: events=%d dropped=%d, want 2 and 3", batch, snap.Events, snap.Dropped)
		}
		checkWindowsHold(t, snap, 2, 0.5)
	}
	// Without windowing there is no window index to overflow.
	c := NewCollector(Options{})
	c.RecordBatch(events)
	if snap := c.Snapshot(); snap.Events != 5 || snap.Dropped != 0 {
		t.Fatalf("unwindowed: events=%d dropped=%d, want 5 and 0", snap.Events, snap.Dropped)
	}
}

// checkWindowsHold asserts the snapshot's window series counts events
// window events, busy seconds of busy time, and no negative index.
func checkWindowsHold(t *testing.T, snap *Snapshot, events int, busy float64) {
	t.Helper()
	gotEvents, gotBusy := 0, 0.0
	for _, v := range snap.Series.Windows {
		if v.Index < 0 {
			t.Fatalf("window index %d is negative", v.Index)
		}
		gotEvents += v.Events
		for _, s := range v.ProcSeconds {
			gotBusy += s
		}
	}
	if gotEvents != events || gotBusy != busy {
		t.Fatalf("windows hold %d events and %g s, want %d and %g s", gotEvents, gotBusy, events, busy)
	}
}
