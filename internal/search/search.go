// Package search implements a Paradyn-style hierarchical bottleneck
// search (Miller et al., "The Paradyn Parallel Performance Measurement
// Tool"; Roth & Miller's Deep Start), the automated-diagnosis approach the
// paper positions its methodology against. The Performance Consultant
// refines hypotheses along the "why" axis (which activity is the
// bottleneck) and the "where" axis (which code region, which processor),
// flagging any hypothesis whose metric exceeds a predefined threshold.
//
// The searcher here consumes the same measurement cube as the
// methodology, so the two approaches are directly comparable: the
// benchmarks contrast what each flags on the paper's case study and how
// many hypotheses the threshold search must evaluate.
package search

import (
	"errors"
	"fmt"
	"sort"

	"loadimb/internal/trace"
)

// Level identifies how deep in the hierarchy a finding sits.
type Level int

// Hierarchy levels.
const (
	// ActivityLevel flags an activity of the whole program.
	ActivityLevel Level = iota
	// RegionLevel flags an activity within one code region.
	RegionLevel
	// ProcessorLevel flags one processor within a (region, activity).
	ProcessorLevel
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case ActivityLevel:
		return "activity"
	case RegionLevel:
		return "region"
	case ProcessorLevel:
		return "processor"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config holds the search thresholds. The zero value uses Paradyn-like
// defaults: hypotheses accounting for at least 20% of their parent's time
// are refined, and processors at least 1.5x the cell mean are flagged.
type Config struct {
	// ShareThreshold is the minimum fraction of the parent's time for a
	// why/where hypothesis to be true (0 means 0.20).
	ShareThreshold float64
	// ExcessFactor is the minimum multiple of the cell's mean processor
	// time for a processor to be flagged (0 means 1.5).
	ExcessFactor float64
}

func (c *Config) normalize() error {
	if c.ShareThreshold == 0 {
		c.ShareThreshold = 0.20
	}
	if c.ExcessFactor == 0 {
		c.ExcessFactor = 1.5
	}
	if c.ShareThreshold < 0 || c.ShareThreshold > 1 {
		return fmt.Errorf("search: share threshold %g out of [0, 1]", c.ShareThreshold)
	}
	if c.ExcessFactor < 1 {
		return fmt.Errorf("search: excess factor %g must be >= 1", c.ExcessFactor)
	}
	return nil
}

// Finding is one true hypothesis.
type Finding struct {
	// Level is the refinement depth.
	Level Level
	// Activity is the activity index (always set).
	Activity int
	// Region is the region index; -1 at ActivityLevel.
	Region int
	// Proc is the processor; -1 above ProcessorLevel.
	Proc int
	// Value is the metric that crossed the threshold: a time share for
	// activity/region findings, a multiple of the mean for processors.
	Value float64
}

// Outcome is the result of a search.
type Outcome struct {
	// Findings lists every true hypothesis, most significant first
	// within each level.
	Findings []Finding
	// HypothesesTested counts metric evaluations — the search cost the
	// Performance Consultant tries to minimize by pruning.
	HypothesesTested int
}

// Search runs the hierarchical refinement on a cube: flag heavy
// activities of the program, refine each into the regions where it is
// heavy, and refine each of those into overloaded processors. Refinement
// only descends through true hypotheses (the pruning that keeps the
// search cheap — and that makes it blind to problems below an
// under-threshold parent).
func Search(cube *trace.Cube, cfg Config) (*Outcome, error) {
	if cube == nil {
		return nil, errors.New("search: nil cube")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	out := &Outcome{}
	total := cube.ProgramTime()
	if total <= 0 {
		return nil, errors.New("search: zero program time")
	}
	// Why axis: which activities dominate the program.
	var flagged []Finding
	for j := 0; j < cube.NumActivities(); j++ {
		out.HypothesesTested++
		tj, err := cube.ActivityTime(j)
		if err != nil {
			return nil, err
		}
		if share := tj / total; share >= cfg.ShareThreshold {
			flagged = append(flagged, Finding{
				Level: ActivityLevel, Activity: j, Region: -1, Proc: -1, Value: share,
			})
		}
	}
	sortByValue(flagged)
	out.Findings = append(out.Findings, flagged...)
	// Where axis: regions within each flagged activity.
	var regionFindings []Finding
	for _, parent := range flagged {
		tj, err := cube.ActivityTime(parent.Activity)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cube.NumRegions(); i++ {
			out.HypothesesTested++
			tij, err := cube.CellTime(i, parent.Activity)
			if err != nil {
				return nil, err
			}
			if share := tij / tj; share >= cfg.ShareThreshold {
				regionFindings = append(regionFindings, Finding{
					Level: RegionLevel, Activity: parent.Activity, Region: i, Proc: -1, Value: share,
				})
			}
		}
	}
	sortByValue(regionFindings)
	out.Findings = append(out.Findings, regionFindings...)
	// Processor refinement within each flagged (region, activity).
	var procFindings []Finding
	for _, parent := range regionFindings {
		times, err := cube.ProcTimes(parent.Region, parent.Activity)
		if err != nil {
			return nil, err
		}
		mean := 0.0
		for _, t := range times {
			mean += t
		}
		mean /= float64(len(times))
		if mean == 0 {
			continue
		}
		for p, t := range times {
			out.HypothesesTested++
			if factor := t / mean; factor >= cfg.ExcessFactor {
				procFindings = append(procFindings, Finding{
					Level: ProcessorLevel, Activity: parent.Activity, Region: parent.Region, Proc: p, Value: factor,
				})
			}
		}
	}
	sortByValue(procFindings)
	out.Findings = append(out.Findings, procFindings...)
	return out, nil
}

func sortByValue(fs []Finding) {
	sort.SliceStable(fs, func(a, b int) bool { return fs[a].Value > fs[b].Value })
}

// ExhaustiveHypotheses returns how many hypotheses an unpruned search of
// the same cube would evaluate: K + K*N + K*N*P. The ratio against
// Outcome.HypothesesTested quantifies the pruning benefit.
func ExhaustiveHypotheses(cube *trace.Cube) int {
	k, n, p := cube.NumActivities(), cube.NumRegions(), cube.NumProcs()
	return k + k*n + k*n*p
}
