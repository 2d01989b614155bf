package jitter

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"plum/internal/scenario"
)

const corpus = "../../../ci/scenarios"

// Every jittered corpus must pass the daemon's strict loader, for many
// seeds, and keep each spec's shape.
func TestJitteredCorpusLoads(t *testing.T) {
	base, err := scenario.LoadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for seed := int64(1); seed <= 200; seed++ {
		dir := t.TempDir()
		specs, err := Corpus(corpus, dir, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := scenario.LoadDir(dir)
		if err != nil {
			t.Fatalf("seed %d: strict loader refused the jittered corpus: %v", seed, err)
		}
		if len(got) != len(base) || len(specs) != len(base) {
			t.Fatalf("seed %d: %d specs loaded, %d written, want %d", seed, len(got), len(specs), len(base))
		}
		for i, sp := range got {
			b := base[i]
			if sp.Name != b.Name || sp.Kind != b.Kind || sp.P != b.P || sp.Cycles != b.Cycles ||
				sp.Model != b.Model || sp.Mapper != b.Mapper || sp.Frac != b.Frac {
				t.Fatalf("seed %d: %s changed shape: %+v vs %+v", seed, sp.Name, sp, b)
			}
			if specs[i].Name != sp.Name || specs[i].Cycles != sp.Cycles {
				t.Fatalf("seed %d: reported %+v for %s (cycles %d)", seed, specs[i], sp.Name, sp.Cycles)
			}
			if f := sp.Front; f != nil && f.X1-f.X0 > b.Front.X1-b.Front.X0+1e-9 {
				t.Fatalf("seed %d: %s front sweep grew", seed, sp.Name)
			}
			if f := sp.Front; f != nil && f.X0 != b.Front.X0 {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no seed moved any front: the jitter is inert")
	}
}

func TestSeedZeroIsVerbatimAndSeedsAreStable(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join(corpus, "*.json"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, same, err := One("x", data, 0)
		if err != nil || !bytes.Equal(same, data) {
			t.Fatalf("%s: seed 0 is not verbatim (err %v)", p, err)
		}
		_, a, _ := One("x", data, 7)
		_, b, _ := One("x", data, 7)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed 7 gave two different specs", p)
		}
	}
}
