// Package timeline renders event logs as per-rank timelines in the style
// of Jumpshot (Zaki, Lusk, Gropp, Swider — reference [14] of the paper):
// one lane per processor, colored/lettered by activity, over a scaled
// time axis. The paper argues users should not have to browse such
// displays to find problems — the methodology points first, and the
// timeline then shows the flagged window.
package timeline

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"loadimb/internal/trace"
)

// Options configures rendering. The zero value renders the whole log at
// 80 columns.
type Options struct {
	// Width is the number of time columns (0 means 80).
	Width int
	// From and To bound the rendered time window; To = 0 means the log
	// span. Use the window to zoom into a flagged region's interval.
	From, To float64
	// Activities restricts rendering to the named activities (nil means
	// all).
	Activities []string
	// Marks are virtual times to flag with a marker column — phase
	// boundaries from the temporal segmentation, say. Marks outside the
	// rendered window are ignored.
	Marks []float64
}

// Timeline is a rendered view of a log.
type Timeline struct {
	// Ranks is the number of lanes.
	Ranks int
	// From and To are the rendered window.
	From, To float64
	// Lanes[rank] is the per-column dominant activity index, -1 for
	// idle.
	Lanes [][]int
	// ActivityNames indexes the activity letters.
	ActivityNames []string
	// Marks are the flagged times within [From, To], in ascending order.
	Marks []float64
}

// letters are the lane glyphs per activity index.
const letters = "CPXSabcdefgh"

// New renders the log. Each column shows the activity occupying the
// largest share of that rank's column interval; idle time renders blank.
func New(log *trace.Log, opts Options) (*Timeline, error) {
	if log == nil || log.Len() == 0 {
		return nil, errors.New("timeline: empty log")
	}
	width := opts.Width
	if width == 0 {
		width = 80
	}
	if width < 1 {
		return nil, fmt.Errorf("timeline: width %d must be positive", width)
	}
	from, to := opts.From, opts.To
	if to == 0 {
		to = log.Span()
	}
	if to <= from {
		return nil, fmt.Errorf("timeline: window [%g, %g] is empty", from, to)
	}
	allowed := map[string]bool{}
	for _, a := range opts.Activities {
		allowed[a] = true
	}
	// Stable activity order: first appearance. Two Each passes instead of
	// one Events() call: renderers are called repeatedly over large logs,
	// and Events copies the whole backing slice per call.
	var acts trace.Names
	log.Each(func(e trace.Event) {
		if len(allowed) == 0 || allowed[e.Activity] {
			acts.Index(e.Activity)
		}
	})
	names := acts.List()
	if len(names) > len(letters) {
		return nil, fmt.Errorf("timeline: more than %d activities", len(letters))
	}
	if len(names) == 0 {
		return nil, errors.New("timeline: no events match the activity filter")
	}
	ranks := log.Ranks()
	// occupancy[rank][col][act] accumulates seconds.
	occupancy := make([][][]float64, ranks)
	for r := range occupancy {
		occupancy[r] = make([][]float64, width)
		for c := range occupancy[r] {
			occupancy[r][c] = make([]float64, len(names))
		}
	}
	colWidth := (to - from) / float64(width)
	log.Each(func(e trace.Event) {
		if len(allowed) > 0 && !allowed[e.Activity] {
			return
		}
		j := acts.Index(e.Activity)
		start, end := e.Start, e.End
		if end <= from || start >= to {
			return
		}
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		first := int((start - from) / colWidth)
		last := int((end - from) / colWidth)
		if last >= width {
			last = width - 1
		}
		for c := first; c <= last; c++ {
			cellStart := from + float64(c)*colWidth
			cellEnd := cellStart + colWidth
			overlap := minF(end, cellEnd) - maxF(start, cellStart)
			if overlap > 0 {
				occupancy[e.Rank][c][j] += overlap
			}
		}
	})
	t := &Timeline{
		Ranks:         ranks,
		From:          from,
		To:            to,
		ActivityNames: names,
		Lanes:         make([][]int, ranks),
	}
	for _, m := range opts.Marks {
		if m > from && m < to {
			t.Marks = append(t.Marks, m)
		}
	}
	sort.Float64s(t.Marks)
	for r := range t.Lanes {
		t.Lanes[r] = make([]int, width)
		for c := 0; c < width; c++ {
			best, bestVal := -1, 0.0
			for j, v := range occupancy[r][c] {
				if v > bestVal {
					best, bestVal = j, v
				}
			}
			t.Lanes[r][c] = best
		}
	}
	return t, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ASCII renders the timeline with one text row per rank plus a legend and
// a time axis.
func (t *Timeline) ASCII() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline [%.3f s, %.3f s]\n", t.From, t.To)
	if len(t.Marks) > 0 && len(t.Lanes) > 0 {
		// A ruler row with one caret per mark — phase boundaries sit
		// above the lanes instead of clobbering them.
		width := len(t.Lanes[0])
		colWidth := (t.To - t.From) / float64(width)
		ruler := make([]byte, width)
		for i := range ruler {
			ruler[i] = ' '
		}
		for _, m := range t.Marks {
			c := int((m - t.From) / colWidth)
			if c >= width {
				c = width - 1
			}
			ruler[c] = '^'
		}
		fmt.Fprintf(&sb, "phases   |%s|\n", ruler)
	}
	for r, lane := range t.Lanes {
		fmt.Fprintf(&sb, "rank %3d |", r)
		for _, j := range lane {
			if j < 0 {
				sb.WriteByte(' ')
			} else {
				sb.WriteByte(letters[j])
			}
		}
		sb.WriteString("|\n")
	}
	sb.WriteString("legend:")
	for j, n := range t.ActivityNames {
		fmt.Fprintf(&sb, " %c=%s", letters[j], n)
	}
	sb.WriteString(" (blank = idle/uninstrumented)\n")
	return sb.String()
}
