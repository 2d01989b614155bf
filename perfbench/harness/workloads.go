package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"plum/perfbench/internal/jitter"
)

// Set-up is timed over several spawns so that no reported set-up time
// rests on one short interval: at least minSpawns, and at least
// minSetupSeconds of spawns in total, at most maxSpawns.
const (
	minSpawns       = 7
	maxSpawns       = 41
	minSetupSeconds = 1.0
)

// corpusHits is the warm cache hits serve-corpus sends: enough that the
// 99th percentile has more than ten samples beyond it.
const corpusHits = 1200

// script is one run's inputs: how to start the daemon and the request
// script to replay against it.
type script struct {
	daemonArgs  []string
	paper       bool
	scenarioDir string // corpus the daemon loads ("" = none)
	work        string
	run         func(ctx context.Context, c *http.Client, base string) ([]*reply, error)
	golden      func(v *verdict) // seed-0 golden comparison, or nil
}

type workload struct {
	name   string
	script func(o options, work string) (*script, error)
}

// The workloads.  Request seeds and spec jitter derive from -seed; the
// program only ever sees the generated requests and spec files.
var workloads = []workload{
	// The paper's own configuration: explicit Euler solver on the
	// paper-scale mesh, uniform SP2, analytic pricing, heuristic mapper.
	{"explicit-p64", paperWorlds(`{"p":64,"cycles":2,"workload":"explicit","mapper":"heu","seed":%d}`)},
	// Implicit PCG with SPAI on a contended 4:1 fat tree.  Pricing is
	// analytic: with measured pricing the cycle-1 decision sits within a
	// few percent of break-even and flips with the seed, which makes a
	// run's work, and so its host time, bimodal across seeds.
	{"implicit-fattree", paperWorlds(`{"p":64,"cycles":2,"workload":"implicit","model":"fattree","seed":%d}`)},
	{"serve-corpus", corpus},
}

func byName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// worldSeconds is the nominal host time of one paper-scale world on a
// two-core x86-64 machine: a run of -seconds S serves
// max(1, S/worldSeconds) worlds, one after another.  The constant fixes
// the work per run, so later versions of the program are measured on
// the same worlds.
const worldSeconds = 10

// paperWorlds serves seeded paper-scale worlds from one client on a
// one-worker daemon without a cache: exactly one world in flight.  The
// k-th of n worlds of a run with seed s has request seed s*n+k.
func paperWorlds(format string) func(o options, work string) (*script, error) {
	return func(o options, work string) (*script, error) {
		n := max(1, o.seconds/worldSeconds)
		reqs := make([]request, n)
		for k := range reqs {
			seed := o.seed*int64(n) + int64(k)
			reqs[k] = request{label: fmt.Sprintf("seed-%d", seed), body: fmt.Sprintf(format, seed), rows: 2}
		}
		return &script{
			daemonArgs: []string{"-paper", "-workers", "1"},
			paper:      true,
			work:       work,
			run: func(ctx context.Context, c *http.Client, base string) ([]*reply, error) {
				return runClients(ctx, c, base, "world", reqs), ctx.Err()
			},
		}, nil
	}
}

// corpus serves the nine corpus scenarios, jittered by the seed, under
// measured pricing on a two-worker daemon with a fresh result cache,
// from two clients:
//
//  1. both clients post the first three specs at once, so each world
//     is simulated once and answered twice (one singleflight follower);
//  2. the clients split the other six specs, two worlds in flight;
//  3. the clients send corpusHits warm cache hits over all nine.
//
// The script's length is set by the corpus, not by -seconds.
func corpus(o options, work string) (*script, error) {
	src := filepath.Join("ci", "scenarios")
	dir := filepath.Join(work, "scenarios")
	cache := filepath.Join(work, "cache")
	for _, d := range []string{dir, cache} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	specs, err := jitter.Corpus(src, dir, o.seed)
	if err != nil {
		return nil, err
	}
	if len(specs) < 4 {
		return nil, fmt.Errorf("%s: %d specs, want at least 4", src, len(specs))
	}
	reqs := make([]request, len(specs))
	for i, sp := range specs {
		reqs[i] = request{label: sp.Name, body: fmt.Sprintf(`{"scenario":%q,"measured":true}`, sp.Name), rows: sp.Cycles}
	}
	var a, b []request
	for i, rq := range reqs[3:] {
		if i%2 == 0 {
			a = append(a, rq)
		} else {
			b = append(b, rq)
		}
	}
	var hitsA, hitsB []request
	for i := 0; i < corpusHits/2; i++ {
		hitsA = append(hitsA, reqs[i%len(reqs)])
		hitsB = append(hitsB, reqs[(i+len(reqs)/2)%len(reqs)])
	}
	sc := &script{
		daemonArgs:  []string{"-workers", "2", "-cache", cache, "-scenario-dir", dir},
		scenarioDir: dir,
		work:        work,
		run: func(ctx context.Context, c *http.Client, base string) ([]*reply, error) {
			replies := runClients(ctx, c, base, "singleflight", reqs[:3], reqs[:3])
			replies = append(replies, runClients(ctx, c, base, "split", a, b)...)
			replies = append(replies, runClients(ctx, c, base, "hit", hitsA, hitsB)...)
			return replies, ctx.Err()
		},
	}
	if o.seed == 0 {
		sc.golden = func(v *verdict) { checkGolden(src, v) }
	}
	return sc, nil
}
