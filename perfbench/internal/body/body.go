// Package body checks a /run response body: NDJSON epoch rows in cycle
// order followed by exactly one end trailer whose row count and digest
// agree with the rows and with the X-Plum-Digest header.
package body

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Row mirrors one streamed epoch line of the serving API.
type Row struct {
	Kind         string  `json:"kind"`
	Cycle        int     `json:"cycle"`
	Balanced     bool    `json:"balanced"`
	Accepted     bool    `json:"accepted"`
	Measured     bool    `json:"measured"`
	Gain         float64 `json:"gain"`
	Cost         float64 `json:"cost"`
	TotalV       int64   `json:"total_v"`
	MaxV         int64   `json:"max_v"`
	Elems        int     `json:"elems"`
	SolveSeconds float64 `json:"solve_seconds"`
}

// Trailer mirrors the end line of a successful response.
type Trailer struct {
	Kind    string  `json:"kind"`
	Rows    int     `json:"rows"`
	SimTime float64 `json:"sim_time"`
	Digest  string  `json:"digest"`
}

// Parsed is a body that passed Check.
type Parsed struct {
	Rows    []Row
	Trailer Trailer
}

// SolveSeconds sums the simulated solve time over the body's epochs.
func (p *Parsed) SolveSeconds() float64 {
	var s float64
	for _, r := range p.Rows {
		s += r.SolveSeconds
	}
	return s
}

// strict decodes one line into v, refusing unknown fields and trailing
// data: a schema drift is a failure, not something to skip.
func strict(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// Check validates a complete body against the row count the request
// implies and the digest the response header announced.
func Check(b []byte, wantRows int, digest string) (*Parsed, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	if b[len(b)-1] != '\n' {
		return nil, fmt.Errorf("truncated: body does not end in a newline")
	}
	lines := bytes.Split(b[:len(b)-1], []byte{'\n'})
	p := new(Parsed)
	for i, line := range lines {
		var head struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("line %d: malformed NDJSON: %v", i+1, err)
		}
		last := i == len(lines)-1
		switch head.Kind {
		case "epoch":
			if last {
				return nil, fmt.Errorf("truncated: no end trailer after %d rows", len(p.Rows))
			}
			var r Row
			if err := strict(line, &r); err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			if r.Cycle != len(p.Rows) {
				return nil, fmt.Errorf("line %d: cycle %d out of order (want %d)", i+1, r.Cycle, len(p.Rows))
			}
			p.Rows = append(p.Rows, r)
		case "end":
			if !last {
				return nil, fmt.Errorf("line %d: data after the end trailer", i+1)
			}
			if err := strict(line, &p.Trailer); err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unexpected line kind %q", i+1, head.Kind)
		}
	}
	t := p.Trailer
	switch {
	case t.Rows != len(p.Rows):
		return nil, fmt.Errorf("trailer counts %d rows, body has %d", t.Rows, len(p.Rows))
	case len(p.Rows) != wantRows:
		return nil, fmt.Errorf("%d rows, want one per cycle (%d)", len(p.Rows), wantRows)
	case t.Digest != digest:
		return nil, fmt.Errorf("trailer digest %.12s differs from header digest %.12s", t.Digest, digest)
	case !(t.SimTime > 0):
		return nil, fmt.Errorf("trailer sim_time %v is not positive", t.SimTime)
	}
	return p, nil
}
