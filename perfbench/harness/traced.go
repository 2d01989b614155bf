package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"

	"plum/perfbench/internal/job"
	"plum/perfbench/internal/prom"
	"plum/perfbench/internal/stats"
)

// layerTotals are the replay's per-layer totals reported as they are.
var layerTotals = []string{
	"core.harness_s", "partition.initial_s", "pmesh.distribute_s",
	"partition.repart_sim_s", "adapt.coarsen_s", "adapt.step_s",
	"adapt.mark_sim_s", "adapt.refine_sim_s", "remap.reassign_sim_s",
	"pmesh.migrate_sim_s", "remap.total_v", "pmesh.migrate_bytes",
	"solver.rebuild_s", "solver.explicit_s", "linalg.setup_s",
	"linalg.pcg_s", "linalg.pcg_iters", "adapt.step_alloc_mb",
	"linalg.setup_alloc_mb", "linalg.pcg_alloc_mb", "solver.explicit_alloc_mb",
	"event.cp_compute_sim_s", "event.cp_overhead_sim_s", "event.cp_wait_sim_s",
}

// traced is the outcome of the per-layer measurement.
type traced struct {
	metrics   map[string]float64
	attempted int      // worlds replayed
	problems  []string // failed output checks: an implicit solve that did not converge
	invalid   []string // why the replay's numbers cannot be trusted, if they cannot
}

// layers computes the per-layer metrics: the served run's counters and
// client-side hit latencies, and the traced replay of its worlds.
func layers(ctx context.Context, sc *script, v *verdict, samples []prom.Sample, worldS []float64) traced {
	m := map[string]float64{}
	t := traced{metrics: m}
	sum := func(name string, match map[string]string) float64 { return prom.Sum(samples, name, match) }

	m["msg.user_msgs"] = sum("plum_msg_messages_total", map[string]string{"class": "user"})
	m["msg.coll_msgs"] = sum("plum_msg_messages_total", map[string]string{"class": "collective"})
	m["msg.user_bytes"] = sum("plum_msg_bytes_total", map[string]string{"class": "user"})
	m["msg.coll_bytes"] = sum("plum_msg_bytes_total", map[string]string{"class": "collective"})
	hits := sum("plum_msg_pool_shells_total", map[string]string{"result": "hit"}) +
		sum("plum_msg_pool_buffers_total", map[string]string{"result": "hit"})
	m["msg.pool_hit_ratio"] = ratio(hits, sum("plum_msg_pool_shells_total", nil)+sum("plum_msg_pool_buffers_total", nil))
	m["event.blocks"] = sum("plum_engine_blocks_total", nil)
	var worldTotal float64
	for _, w := range worldS {
		worldTotal += w
	}
	m["event.host_us_per_msg"] = ratio(worldTotal*1e6, m["msg.user_msgs"]+m["msg.coll_msgs"])
	m["serve.cache_hit_ratio"] = ratio(sum("plumserve_requests_total", map[string]string{"result": "cached"}),
		sum("plumserve_requests_total", nil))
	m["serve.singleflight_followers"] = sum("plumserve_singleflight_total", map[string]string{"role": "follower"})

	var hitMs []float64
	for _, r := range v.replies {
		if r.phase == "hit" {
			hitMs = append(hitMs, float64(r.end.Microseconds())/1000)
		}
	}
	m["serve.hit_ms"], m["serve.hit_p99_ms"] = 0, 0
	if len(hitMs) > 0 {
		m["serve.hit_ms"] = stats.Median(hitMs)
		m["serve.hit_p99_ms"], _ = stats.Percentile(hitMs, 0.99) // NaN (refused) if too few
	}

	for _, name := range layerTotals {
		m[name] = 0
	}
	m["balance.accept_ratio"], m["trace.overhead"], m["trace.rows_match"] = 0, 0, 0
	res, err := replay(ctx, sc, v)
	if err != nil {
		t.invalid = append(t.invalid, fmt.Sprintf("the traced replay failed: %v", err))
		return t
	}
	t.attempted = len(res.Worlds)
	if len(res.Worlds) != len(v.leaders) {
		t.invalid = append(t.invalid, fmt.Sprintf("%d worlds replayed, %d served", len(res.Worlds), len(v.leaders)))
	}
	var walls []float64
	for i, w := range res.Worlds {
		walls = append(walls, w.WallS)
		if !w.PCGConverged {
			t.problems = append(t.problems, fmt.Sprintf("traced %s: an implicit solve did not converge", w.Request))
		}
		if i < len(v.leaders) && w.Body != string(v.leaders[i].body) {
			t.invalid = append(t.invalid, fmt.Sprintf("traced %s: rows differ from the served rows", w.Request))
		}
	}
	for _, name := range layerTotals {
		m[name] = res.Layers[name]
	}
	m["balance.accept_ratio"] = ratio(res.Layers["balance.accepted"], res.Layers["balance.repartitions"])
	m["trace.overhead"] = ratio(stats.Mean(walls), stats.Mean(worldS))
	if len(t.invalid) == 0 {
		m["trace.rows_match"] = 1
	}
	return t
}

// replay runs the traced replay binary over the run's distinct worlds.
func replay(ctx context.Context, sc *script, v *verdict) (*job.Result, error) {
	j := job.Job{Paper: sc.paper, ScenarioDir: sc.scenarioDir}
	for _, l := range v.leaders {
		j.Requests = append(j.Requests, l.req.body)
	}
	data, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(sc.work, "trace-job.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, "trace"), "-job", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	res := new(job.Result)
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("trace output: %v", err)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
