package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"plum/perfbench/internal/body"
)

// verdict is the outcome of the output checks over a run's replies.
type verdict struct {
	replies  []*reply
	leaders  []*reply // the simulating reply of each distinct world, in order
	problems []string
}

func (v *verdict) fail(r *reply, format string, args ...any) {
	r.bad = true
	v.problems = append(v.problems, fmt.Sprintf("%s [%s]: %s", r.req.label, r.phase, fmt.Sprintf(format, args...)))
}

func (v *verdict) failed() int {
	n := 0
	for _, r := range v.replies {
		if r.bad {
			n++
		}
	}
	return n
}

// verify checks every reply: status 200, a well-formed body whose rows
// match the request's cycles and whose trailer digest matches the
// header, and byte identity with the leader of its digest for every
// duplicate, follower, and cache hit.
func verify(replies []*reply) *verdict {
	v := &verdict{replies: replies}
	ref := map[string]*reply{}
	var order []string
	for _, r := range replies {
		switch {
		case r.err != nil:
			v.fail(r, "%v", r.err)
			continue
		case r.status != 200:
			v.fail(r, "status %d: %.200s", r.status, r.body)
			continue
		}
		p, err := body.Check(r.body, r.req.rows, r.digest)
		if err != nil {
			v.fail(r, "%v", err)
			continue
		}
		r.parsed = p
		// The reference body of a digest is the reply that simulated it.
		if ref[r.digest] == nil {
			order = append(order, r.digest)
		}
		if ref[r.digest] == nil || (r.cache == "miss" && ref[r.digest].cache != "miss") {
			ref[r.digest] = r
		}
	}
	for _, d := range order {
		v.leaders = append(v.leaders, ref[d])
	}
	for _, r := range replies {
		if r.parsed == nil {
			continue
		}
		if l := ref[r.digest]; l != r && !bytes.Equal(l.body, r.body) {
			v.fail(r, "body (%s) differs from the simulating reply's body (%s)", r.cache, l.cache)
		}
	}
	for _, l := range v.leaders {
		if l.cache != "miss" {
			v.fail(l, "no reply simulated this world")
		}
	}
	return v
}

// goldenRow is the part of a golden ledger epoch a served row must
// reproduce exactly.  Float fields are left out on purpose: the served
// path's stop-agreement allreduce shifts time-keyed contention, so
// served solve times differ from the offline goldens in the last digits.
type goldenRow struct {
	Kind     string `json:"kind"`
	Run      string `json:"run"`
	Pricing  string `json:"pricing"`
	Balanced bool   `json:"balanced"`
	Accepted bool   `json:"accepted"`
	TotalV   int64  `json:"total_v"`
	MaxV     int64  `json:"max_v"`
	Elems    int    `json:"elems"`
}

// checkGolden compares each simulated corpus world's rows with the
// measured-pricing run of its committed golden ledger.
func checkGolden(dir string, v *verdict) {
	for _, l := range v.leaders {
		if l.parsed == nil {
			continue
		}
		want, err := readGolden(filepath.Join(dir, l.req.label+".golden.jsonl"))
		if err != nil {
			v.fail(l, "golden: %v", err)
			continue
		}
		if len(want) != len(l.parsed.Rows) {
			v.fail(l, "golden has %d measured epochs, served %d", len(want), len(l.parsed.Rows))
			continue
		}
		for i, g := range want {
			r := l.parsed.Rows[i]
			if r.Balanced != g.Balanced || r.Accepted != g.Accepted || r.Measured != (g.Pricing == "measured") ||
				r.TotalV != g.TotalV || r.MaxV != g.MaxV || r.Elems != g.Elems {
				v.fail(l, "epoch %d differs from golden: served %+v, golden %+v", i, r, g)
				break
			}
		}
	}
}

func readGolden(path string) ([]goldenRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []goldenRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var g goldenRow
		if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
			return nil, err
		}
		if g.Kind == "epoch" && g.Run == "measured" {
			rows = append(rows, g)
		}
	}
	return rows, sc.Err()
}
