// Package tracefmt defines the on-disk and wire formats for measurement
// cubes and event traces. A binary cube file is one LIFP full document
// (see delta.go) carrying a cube section: the same encoding a live
// endpoint serves at /delta, so the time cube has one binary form. JSON
// and CSV formats serve interoperability, and LIWP (wire.go) streams raw
// events. Every format round-trips losslessly through the in-memory types
// of internal/trace (CSV to its decimal precision).
package tracefmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"loadimb/internal/trace"
)

// Format constants.
const (
	// Magic identifies a binary cube file, which is a LIFP document.
	Magic = DeltaMagic
	// maxNameLen bounds string fields against corrupt or hostile input.
	maxNameLen = 4096
	// maxDim bounds a decoded processor count.
	maxDim = 1 << 20
)

// Format errors.
var (
	// ErrBadMagic is returned when the input does not start with the
	// format's magic.
	ErrBadMagic = errors.New("tracefmt: bad magic")
	// ErrBadVersion is returned for unsupported format versions.
	ErrBadVersion = errors.New("tracefmt: unsupported format version")
	// ErrCorrupt is returned for structurally invalid input.
	ErrCorrupt = errors.New("tracefmt: corrupt input")
)

// WriteCube encodes the cube as a binary cube file: a LIFP full document
// with Boot and Gen 0, the cube in its cube section and no series. A
// cube whose N·K·P exceeds the document's cell budget (see delta.go's
// Safety) is refused, since ReadCube would reject the file.
func WriteCube(w io.Writer, cube *trace.Cube) error {
	if cube == nil {
		return errors.New("tracefmt: nil cube")
	}
	doc, err := EncodeSnapshotFull(&DeltaState{Cube: cube})
	if err != nil {
		return err
	}
	_, err = w.Write(doc)
	return err
}

// ReadCube decodes a binary cube file. It accepts any LIFP full document
// that carries a cube. Wrong magic and unsupported versions return
// ErrBadMagic and ErrBadVersion; every other defect, a document without
// a cube included, returns an error wrapping ErrCorrupt.
func ReadCube(r io.Reader) (*trace.Cube, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	st, err := DecodeSnapshot(doc, nil)
	switch {
	case errors.Is(err, ErrBadMagic), errors.Is(err, ErrBadVersion):
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	case st.Cube == nil:
		return nil, fmt.Errorf("%w: document has no cube", ErrCorrupt)
	}
	return st.Cube, nil
}

// jsonCube is the JSON wire representation of a cube.
type jsonCube struct {
	Regions     []string      `json:"regions"`
	Activities  []string      `json:"activities"`
	Procs       int           `json:"procs"`
	ProgramTime float64       `json:"program_time"`
	Times       [][][]float64 `json:"times"` // [region][activity][proc]
}

// WriteCubeJSON encodes the cube as indented JSON.
func WriteCubeJSON(w io.Writer, cube *trace.Cube) error {
	if cube == nil {
		return errors.New("tracefmt: nil cube")
	}
	jc := jsonCube{
		Regions:     cube.Regions(),
		Activities:  cube.Activities(),
		Procs:       cube.NumProcs(),
		ProgramTime: cube.ProgramTime(),
	}
	jc.Times = make([][][]float64, cube.NumRegions())
	for i := range jc.Times {
		jc.Times[i] = make([][]float64, cube.NumActivities())
		for j := range jc.Times[i] {
			ts, err := cube.ProcTimes(i, j)
			if err != nil {
				return err
			}
			jc.Times[i][j] = ts
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jc)
}

// ReadCubeJSON decodes a JSON cube.
func ReadCubeJSON(r io.Reader) (*trace.Cube, error) {
	var jc jsonCube
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	cube, err := trace.NewCube(jc.Regions, jc.Activities, jc.Procs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(jc.Times) != len(jc.Regions) {
		return nil, fmt.Errorf("%w: %d time rows for %d regions", ErrCorrupt, len(jc.Times), len(jc.Regions))
	}
	for i := range jc.Times {
		if len(jc.Times[i]) != len(jc.Activities) {
			return nil, fmt.Errorf("%w: region %d has %d activity rows", ErrCorrupt, i, len(jc.Times[i]))
		}
		for j := range jc.Times[i] {
			if len(jc.Times[i][j]) != jc.Procs {
				return nil, fmt.Errorf("%w: cell (%d,%d) has %d times", ErrCorrupt, i, j, len(jc.Times[i][j]))
			}
			for p, t := range jc.Times[i][j] {
				if err := cube.Set(i, j, p, t); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
			}
		}
	}
	if jc.ProgramTime > cube.RegionsTotal() {
		if err := cube.SetProgramTime(jc.ProgramTime); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return cube, nil
}

// jsonEvent is the JSON wire representation of one trace event.
type jsonEvent struct {
	Rank     int     `json:"rank"`
	Region   string  `json:"region"`
	Activity string  `json:"activity"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// WriteEvents encodes an event log as JSON Lines (one event per line), the
// streaming-friendly format tools exchange.
func WriteEvents(w io.Writer, log *trace.Log) error {
	if log == nil {
		return errors.New("tracefmt: nil log")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	log.Each(func(e trace.Event) {
		if encErr != nil {
			return
		}
		je := jsonEvent{Rank: e.Rank, Region: e.Region, Activity: e.Activity, Start: e.Start, End: e.End}
		encErr = enc.Encode(je)
	})
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}

// ReadEvents decodes a JSON Lines event log.
func ReadEvents(r io.Reader) (*trace.Log, error) {
	var log trace.Log
	dec := json.NewDecoder(r)
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		e := trace.Event{Rank: je.Rank, Region: je.Region, Activity: je.Activity, Start: je.Start, End: je.End}
		if err := log.Append(e); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return &log, nil
}
