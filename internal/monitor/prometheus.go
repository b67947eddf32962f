package monitor

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"loadimb/internal/temporal"
)

// Metric family names served at /metrics. Every dispersion gauge carries
// the value the offline analysis (core.Analyze) computes for the same
// cube.
const (
	MetricEventsTotal   = "loadimb_events_total"
	MetricDroppedTotal  = "loadimb_events_dropped_total"
	MetricProcs         = "loadimb_procs"
	MetricProgramTime   = "loadimb_program_time_seconds"
	MetricInstrumented  = "loadimb_instrumented_seconds"
	MetricRegionSeconds = "loadimb_region_seconds"
	MetricActSeconds    = "loadimb_activity_seconds"
	MetricProcSeconds   = "loadimb_proc_seconds"
	MetricIDCell        = "loadimb_id_ij"
	MetricIDActivity    = "loadimb_id_a"
	MetricSIDActivity   = "loadimb_sid_a"
	MetricIDRegion      = "loadimb_id_c"
	MetricSIDRegion     = "loadimb_sid_c"
	MetricIDProc        = "loadimb_id_p"
	MetricGini          = "loadimb_gini"
	MetricCellEvents    = "loadimb_cell_events_total"
	MetricCellDurMean   = "loadimb_event_duration_seconds_mean"
	MetricCellDurStddev = "loadimb_event_duration_seconds_stddev"
	MetricWindowID      = "loadimb_window_id"
	MetricWindowGini    = "loadimb_window_gini"
	MetricPhaseCurrent  = "loadimb_phase_current"
	MetricPhaseChanges  = "loadimb_phase_changes_total"
	MetricPhaseSeconds  = "loadimb_phase_seconds"
	MetricDiagOutliers  = "loadimb_diag_outlier_ranks"
	MetricDiagCohorts   = "loadimb_diag_cohorts"
	MetricDiagScore     = "loadimb_diag_score"
)

// writer accumulates Prometheus text-format lines, remembering the first
// write error so call sites stay linear.
type writer struct {
	w   io.Writer
	err error
}

func (m *writer) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

// header emits the HELP/TYPE preamble of one metric family.
func (m *writer) header(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line. Non-finite values are skipped: Prometheus
// would accept NaN but a NaN gauge only poisons downstream queries.
func (m *writer) sample(name string, labels []string, v float64) {
	if m.err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	lbl := ""
	if len(labels) > 0 {
		lbl = "{" + strings.Join(labels, ",") + "}"
	}
	m.printf("%s%s %s\n", name, lbl, strconv.FormatFloat(v, 'g', -1, 64))
}

// labelEscaper escapes a label value as the Prometheus text format
// defines: backslash, double quote and line feed, nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one escaped Prometheus label pair, key="value". Every
// exposition in the repo escapes label values through it.
func Label(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}

// WriteMetrics renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): the collector counters, the cube marginals, and
// every dispersion index of the paper — ID_ij per cell, ID_A/SID_A per
// activity, ID_C/SID_C per region, ID_P per (region, processor), plus the
// Gini coefficient of the per-processor total times. Gauge values agree
// with core.Analyze on the snapshot cube exactly (they are computed by
// the same view functions).
func WriteMetrics(w io.Writer, snap *Snapshot) error {
	m := &writer{w: w}
	m.header(MetricEventsTotal, "Events recorded by the collector.", "counter")
	m.sample(MetricEventsTotal, nil, float64(snap.Events))
	m.header(MetricDroppedTotal, "Malformed events rejected by the collector.", "counter")
	m.sample(MetricDroppedTotal, nil, float64(snap.Dropped))
	cube := snap.Cube
	if cube == nil || cube.ProgramTime() <= 0 {
		// Nothing measured yet: serve the counters only.
		return m.err
	}
	regions, activities := cube.Regions(), cube.Activities()

	m.header(MetricProcs, "Processors observed in the trace.", "gauge")
	m.sample(MetricProcs, nil, float64(cube.NumProcs()))
	m.header(MetricProgramTime, "Wall clock time T of the program so far.", "gauge")
	m.sample(MetricProgramTime, nil, cube.ProgramTime())
	m.header(MetricInstrumented, "Wall clock time of the instrumented regions.", "gauge")
	m.sample(MetricInstrumented, nil, cube.RegionsTotal())

	m.header(MetricRegionSeconds, "Wall clock time t_i of each code region.", "gauge")
	for i, name := range regions {
		t, err := cube.RegionTime(i)
		if err != nil {
			return err
		}
		m.sample(MetricRegionSeconds, []string{Label("region", name)}, t)
	}
	m.header(MetricActSeconds, "Wall clock time T_j of each activity.", "gauge")
	for j, name := range activities {
		t, err := cube.ActivityTime(j)
		if err != nil {
			return err
		}
		m.sample(MetricActSeconds, []string{Label("activity", name)}, t)
	}
	m.header(MetricProcSeconds, "Total instrumented time of each processor.", "gauge")
	for p := 0; p < cube.NumProcs(); p++ {
		t, err := cube.ProcTotalTime(p)
		if err != nil {
			return err
		}
		m.sample(MetricProcSeconds, []string{Label("proc", strconv.Itoa(p))}, t)
	}

	// The dispersion views, computed once per snapshot by the same code
	// paths core.Analyze uses and memoized on the snapshot, so repeated
	// scrapes of an unchanged snapshot serve cached values.
	views, err := snap.Views()
	if err != nil {
		return err
	}
	m.header(MetricIDCell, "Index of dispersion ID_ij of cell (region, activity).", "gauge")
	for i := range views.Cells {
		for j := range views.Cells[i] {
			if !views.Cells[i][j].Defined {
				continue
			}
			m.sample(MetricIDCell,
				[]string{Label("region", regions[i]), Label("activity", activities[j])},
				views.Cells[i][j].ID)
		}
	}
	m.header(MetricIDActivity, "Activity-view index of dispersion ID_A.", "gauge")
	m.header(MetricSIDActivity, "Scaled activity-view index SID_A.", "gauge")
	for _, a := range views.Activities {
		if !a.Defined {
			continue
		}
		m.sample(MetricIDActivity, []string{Label("activity", a.Name)}, a.ID)
		m.sample(MetricSIDActivity, []string{Label("activity", a.Name)}, a.SID)
	}
	m.header(MetricIDRegion, "Code-region-view index of dispersion ID_C.", "gauge")
	m.header(MetricSIDRegion, "Scaled code-region-view index SID_C.", "gauge")
	for _, r := range views.Regions {
		if !r.Defined {
			continue
		}
		m.sample(MetricIDRegion, []string{Label("region", r.Name)}, r.ID)
		m.sample(MetricSIDRegion, []string{Label("region", r.Name)}, r.SID)
	}
	m.header(MetricIDProc, "Processor-view dispersion ID_P of (region, processor).", "gauge")
	for i := range views.Processors.ByRegion {
		for p := range views.Processors.ByRegion[i] {
			d := views.Processors.ByRegion[i][p]
			if !d.Defined {
				continue
			}
			m.sample(MetricIDProc,
				[]string{Label("region", regions[i]), Label("proc", strconv.Itoa(p))},
				d.ID)
		}
	}
	m.header(MetricGini, "Gini coefficient of the per-processor total times.", "gauge")
	m.sample(MetricGini, nil, giniOf(snap.ProcTotals()))

	// Per-cell event-duration statistics from the streaming accumulators.
	m.header(MetricCellEvents, "Events folded into cell (region, activity).", "counter")
	m.header(MetricCellDurMean, "Mean event duration of cell (region, activity).", "gauge")
	m.header(MetricCellDurStddev, "Event duration standard deviation of cell (region, activity).", "gauge")
	for i := range snap.CellStats {
		for j := range snap.CellStats[i] {
			acc := snap.CellStats[i][j]
			if acc.N() == 0 {
				continue
			}
			lbls := []string{Label("region", regions[i]), Label("activity", activities[j])}
			m.sample(MetricCellEvents, lbls, float64(acc.N()))
			m.sample(MetricCellDurMean, lbls, acc.Mean())
			m.sample(MetricCellDurStddev, lbls, acc.StdDev())
		}
	}

	if len(snap.Windows) > 0 {
		last := snap.Windows[len(snap.Windows)-1]
		m.header(MetricWindowID, "Dispersion of per-processor load in the latest window.", "gauge")
		if last.ID != nil {
			// An all-idle window has no defined dispersion; omitting the
			// sample beats serving a misleading 0 ("perfectly balanced").
			m.sample(MetricWindowID, []string{Label("window", strconv.Itoa(last.Index))}, *last.ID)
		}
		m.header(MetricWindowGini, "Gini of per-processor load in the latest window.", "gauge")
		m.sample(MetricWindowGini, []string{Label("window", strconv.Itoa(last.Index))}, last.Gini)
	}

	// Live phase detection: the streaming PELT segmentation of the window
	// trajectory (see /phases.json for the full boundary history).
	if len(snap.Phases) > 0 {
		current := snap.Phases[len(snap.Phases)-1]
		m.header(MetricPhaseCurrent, "1 for the label of the phase the run is currently in, 0 for the others.", "gauge")
		for _, l := range []string{temporal.LabelIdle, temporal.LabelQuiet, temporal.LabelHot} {
			v := 0.0
			if l == current.Label {
				v = 1
			}
			m.sample(MetricPhaseCurrent, []string{Label("label", l)}, v)
		}
		m.header(MetricPhaseChanges, "Phase boundaries detected in the trajectory so far.", "counter")
		m.sample(MetricPhaseChanges, nil, float64(len(snap.Phases)-1))
		m.header(MetricPhaseSeconds, "Virtual time spent in phases of each label so far.", "gauge")
		bylabel := map[string]float64{}
		for _, ph := range snap.Phases {
			bylabel[ph.Label] += ph.End - ph.Start
		}
		for _, l := range []string{temporal.LabelIdle, temporal.LabelQuiet, temporal.LabelHot} {
			if t, ok := bylabel[l]; ok {
				m.sample(MetricPhaseSeconds, []string{Label("label", l)}, t)
			}
		}
	}

	// Automatic diagnosis: the rank-similarity findings, memoized per
	// fold generation like the views above.
	if rep := snap.Diagnosis(); rep != nil {
		m.header(MetricDiagOutliers, "Distinct ranks currently flagged as diverged from their cohort.", "gauge")
		distinct := map[int]bool{}
		for _, f := range rep.Findings {
			distinct[f.Rank] = true
		}
		m.sample(MetricDiagOutliers, nil, float64(len(distinct)))
		m.header(MetricDiagCohorts, "Rank-similarity cohorts detected in each phase.", "gauge")
		for _, pd := range rep.Phases {
			m.sample(MetricDiagCohorts, []string{Label("phase", strconv.Itoa(pd.Phase))}, float64(len(pd.Cohorts)))
		}
		m.header(MetricDiagScore, "Divergence score (pooled-scatter units) of each finding.", "gauge")
		for _, f := range rep.Findings {
			rank := strconv.Itoa(f.Rank)
			if f.RankLabel != "" {
				rank = f.RankLabel
			}
			lbls := []string{Label("rank", rank), Label("phase", strconv.Itoa(f.Phase))}
			if len(f.Dominant) > 0 {
				lbls = append(lbls, Label("dominant", f.Dominant[0].Dimension))
			}
			m.sample(MetricDiagScore, lbls, f.Score)
		}
	}
	return m.err
}
