package body

import (
	"strings"
	"testing"
)

const digest = "ab12"

const good = `{"kind":"epoch","cycle":0,"balanced":false,"accepted":true,"measured":false,"gain":1.5,"cost":0.25,"total_v":10,"max_v":4,"elems":100,"solve_seconds":0.5}
{"kind":"epoch","cycle":1,"balanced":true,"accepted":false,"measured":true,"gain":0,"cost":0,"total_v":0,"max_v":0,"elems":120,"solve_seconds":0.75}
{"kind":"end","rows":2,"sim_time":3.5,"digest":"ab12"}
`

func TestCheckAcceptsWellFormedBody(t *testing.T) {
	p, err := Check([]byte(good), 2, digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 2 || p.Trailer.SimTime != 3.5 || p.SolveSeconds() != 1.25 {
		t.Fatalf("parsed %+v", p)
	}
}

func TestCheckRejects(t *testing.T) {
	lines := strings.SplitAfter(good, "\n")
	cases := map[string]struct {
		body string
		rows int
	}{
		"truncated mid-line":      {good[:len(good)-10], 2},
		"truncated before end":    {lines[0] + lines[1], 2},
		"truncated to nothing":    {"", 2},
		"reordered rows":          {lines[1] + lines[0] + lines[2], 2},
		"trailer first":           {lines[2] + lines[0] + lines[1], 2},
		"digest mismatch":         {strings.Replace(good, `"digest":"ab12"`, `"digest":"ff00"`, 1), 2},
		"trailer row count wrong": {strings.Replace(good, `"rows":2`, `"rows":3`, 1), 2},
		"rows differ from cycles": {good, 3},
		"duplicated row":          {lines[0] + lines[0] + lines[1] + lines[2], 2},
		"malformed line":          {lines[0] + "{not json\n" + lines[2], 2},
		"unknown field":           {strings.Replace(good, `"elems":100`, `"elems":100,"extra":1`, 1), 2},
		"error line":              {lines[0] + `{"kind":"cancelled","error":"context canceled"}` + "\n", 1},
		"zero sim time":           {strings.Replace(good, `"sim_time":3.5`, `"sim_time":0`, 1), 2},
	}
	for name, c := range cases {
		if _, err := Check([]byte(c.body), c.rows, digest); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
