// Package jitter derives a seeded variant of the committed scenario
// corpus.  The variant keeps every spec's kind, machine, and size and
// moves only where and when its dynamics strike: front positions x0/x1,
// the burst arrival cycle, which ranks straggle, and the multijob
// phase.  Seed 0 is the corpus verbatim.
package jitter

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Spec is what the benchmark needs to know about one written spec.
type Spec struct {
	Name   string
	Cycles int // epochs the world runs: rows one response must carry
}

// The loader's defaults for fields a spec may omit.
const (
	defaultP      = 8
	defaultCycles = 4
)

// Corpus writes every *.json spec of src into dst (which must exist),
// jittered by seed, and returns them sorted by name.
func Corpus(src, dst string, seed int64) ([]Spec, error) {
	paths, err := filepath.Glob(filepath.Join(src, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("jitter: no *.json specs in %s", src)
	}
	sort.Strings(paths)
	out := make([]Spec, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		spec, jittered, err := One(name, data, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if err := os.WriteFile(filepath.Join(dst, name+".json"), jittered, 0o644); err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// One jitters a single spec document.  Seed 0 returns data unchanged.
func One(name string, data []byte, seed int64) (Spec, []byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return Spec{}, nil, err
	}
	p, err := intField(doc, "p", defaultP)
	if err != nil {
		return Spec{}, nil, err
	}
	cycles, err := intField(doc, "cycles", defaultCycles)
	if err != nil {
		return Spec{}, nil, err
	}
	spec := Spec{Name: name, Cycles: cycles}
	if seed == 0 {
		return spec, data, nil
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	if f, ok := doc["front"].(map[string]any); ok {
		x0, err := floatField(f, "x0")
		if err != nil {
			return spec, nil, err
		}
		x1, err := floatField(f, "x1")
		if err != nil {
			return spec, nil, err
		}
		// One shift for both ends keeps x1 >= x0 and the sweep length.
		d := round3((rng.Float64()*2 - 1) * 0.05)
		d = math.Max(d, -x0)
		d = math.Min(d, 1-x1)
		f["x0"], f["x1"] = round3(x0+d), round3(x1+d)
	}
	if b, ok := doc["burst"].(map[string]any); ok {
		a, err := intField(b, "arrival", 0)
		if err != nil {
			return spec, nil, err
		}
		a += rng.Intn(3) - 1
		b["arrival"] = min(max(a, 0), cycles-1)
	}
	if s, ok := doc["straggler"].(map[string]any); ok {
		raw, _ := s["ranks"].([]any)
		shift := rng.Intn(p)
		ranks := make([]int, 0, len(raw))
		for _, r := range raw {
			n, ok := r.(json.Number)
			if !ok {
				return spec, nil, fmt.Errorf("straggler.ranks: %v is not a number", r)
			}
			v, err := n.Int64()
			if err != nil {
				return spec, nil, fmt.Errorf("straggler.ranks: %v", err)
			}
			ranks = append(ranks, (int(v)+shift)%p)
		}
		sort.Ints(ranks)
		s["ranks"] = ranks
	}
	if m, ok := doc["multijob"].(map[string]any); ok {
		m["phase"] = round3(rng.Float64() * 0.999)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return spec, nil, err
	}
	return spec, append(out, '\n'), nil
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func intField(m map[string]any, key string, def int) (int, error) {
	v, ok := m[key]
	if !ok {
		return def, nil
	}
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("%s: %v is not a number", key, v)
	}
	i, err := n.Int64()
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	return int(i), nil
}

func floatField(m map[string]any, key string) (float64, error) {
	n, ok := m[key].(json.Number)
	if !ok {
		return 0, fmt.Errorf("%s: %v is not a number", key, m[key])
	}
	return n.Float64()
}
