// Package prom parses the Prometheus text exposition the daemon serves
// on /metrics (counters, gauges, and histogram series; comments skipped).
package prom

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one series: a metric name, its labels, and its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Parse reads every sample of an exposition.
func Parse(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unclosed labels in %q", line)
		}
		for _, kv := range splitLabels(rest[1:end]) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return s, fmt.Errorf("bad label %q", kv)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				return s, fmt.Errorf("bad label value %s: %v", v, err)
			}
			s.Labels[k] = uq
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// splitLabels splits a label list on the commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	start, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Sum adds the values of every sample named name whose labels include
// all of match.
func Sum(samples []Sample, name string, match map[string]string) float64 {
	var total float64
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}
