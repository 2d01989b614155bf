// Command harness is the repository benchmark's end-to-end driver.  It
// drives a plumserve binary built from the tree under test over HTTP,
// the way a client of the serving API would, and never links the
// program's packages: a refactor of any internal layer is measured
// through the request schema and the byte-identity contract alone.
//
// One run = one workload at one seed:
//
//  1. set-up: spawn the daemon several times and time spawn→/readyz
//     (Go start, mesh, dual graph, corpus load, listen); the last
//     spawn serves the run;
//  2. replay the workload's seeded request script, checking every body,
//     and take the daemon's CPU seconds over it;
//  3. scrape /metrics and the daemon's VmHWM, then drain it (SIGTERM);
//  4. with -trace 1, hand the same worlds to the traced replay
//     (perfbench/trace) and accept its per-layer numbers only if its
//     bodies equal the served ones byte for byte.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics, or with -trace 1 the per-layer ones.  A human-readable table
// goes to standard error.  The exit code is non-zero when any output
// check failed or the run could not be carried out.  -workload all runs
// every workload in turn and prints one JSON line for each.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"plum/perfbench/internal/stats"
)

// Where run.sh leaves the binaries, and the run's scratch space.  Both
// are relative to the checkout root, the working directory of a run.
const (
	binDir  = ".bench_build/bin"
	workDir = ".bench_build/work"
)

// deadline bounds one workload's run, set-up and traced replay included.
const deadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames()+", or all")
	flag.Int64Var(&o.seed, "seed", 0, "input seed (0: the committed corpus verbatim)")
	flag.IntVar(&o.seconds, "seconds", 0, "run length; sets how many paper-scale worlds a run serves")
	flag.IntVar(&traceFlag, "trace", 0, "1: run the traced replay too and report per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds < 1 || byName(names[0]) == nil {
		fmt.Fprintf(os.Stderr, "harness: want -workload %s|all -seed N -seconds S -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	code := 0
	for _, name := range names {
		o.workload = name
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		res, err := run(ctx, o)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "harness: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.printTable(os.Stderr, o)
		line, err := json.Marshal(res.out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harness: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.out.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out      output
	table    map[string]float64 // every metric measured, for the table
	problems []string
	notes    []string // per-phase and per-world timings
}

// The reported metrics with their units.  End-to-end metrics come from
// the untraced served run; per-layer metrics from the traced run and
// the served run's counters and client-side latencies.  The host-time
// metric with a bound is the daemon's CPU time: on a virtual machine
// whose CPU the host steals from time to time, wall-clock latencies
// of the same world varied by up to 30% within an hour, while the
// daemon's CPU seconds for a run stayed within 2%.  The wall-clock
// latencies are reported as serve.* metrics, without a bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sim_makespan_s", "s"},
	{"sim_solve_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"core.harness_s", "s"},
	{"partition.initial_s", "s"},
	{"pmesh.distribute_s", "s"},
	{"partition.repart_sim_s", "s"},
	{"balance.accept_ratio", "ratio"},
	{"adapt.coarsen_s", "s"},
	{"adapt.step_s", "s"},
	{"adapt.mark_sim_s", "s"},
	{"adapt.refine_sim_s", "s"},
	{"remap.reassign_sim_s", "s"},
	{"pmesh.migrate_sim_s", "s"},
	{"remap.total_v", "count"},
	{"pmesh.migrate_bytes", "bytes"},
	{"solver.rebuild_s", "s"},
	{"solver.explicit_s", "s"},
	{"linalg.setup_s", "s"},
	{"linalg.pcg_s", "s"},
	{"linalg.pcg_iters", "count"},
	{"adapt.step_alloc_mb", "MB"},
	{"linalg.setup_alloc_mb", "MB"},
	{"linalg.pcg_alloc_mb", "MB"},
	{"solver.explicit_alloc_mb", "MB"},
	{"msg.user_msgs", "count"},
	{"msg.user_bytes", "bytes"},
	{"msg.coll_msgs", "count"},
	{"msg.coll_bytes", "bytes"},
	{"msg.pool_hit_ratio", "ratio"},
	{"event.blocks", "count"},
	{"event.host_us_per_msg", "us"},
	{"event.cp_compute_sim_s", "s"},
	{"event.cp_overhead_sim_s", "s"},
	{"event.cp_wait_sim_s", "s"},
	{"serve.world_s", "s"},
	{"serve.first_row_s", "s"},
	{"serve.wall_s", "s"},
	{"serve.hit_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.singleflight_followers", "count"},
	{"trace.overhead", "ratio"},
	{"trace.rows_match", "bool"},
}

func run(ctx context.Context, o options) (*result, error) {
	work, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	sc, err := byName(o.workload).script(o, work)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}

	d, setups, err := setUp(ctx, sc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.kill()
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	replies, err := sc.run(ctx, newClient(), "http://"+d.addr)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	samples, err := d.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	v := verify(replies)
	if sc.golden != nil {
		sc.golden(v)
	}
	res := &result{notes: timings(replies, v.leaders)}
	res.out.Attempted = len(replies)
	var worldS, firstS []float64
	var simMakespan, simSolve float64
	for _, l := range v.leaders {
		worldS = append(worldS, l.end.Seconds())
		firstS = append(firstS, l.firstRow.Seconds())
		simMakespan += l.parsed.Trailer.SimTime
		simSolve += l.parsed.SolveSeconds()
	}

	// World times are averaged, not taken at the median: the corpus
	// worlds differ in size by 5x, so which world sits in the middle of
	// a run changes with the seed's jitter.
	m := map[string]float64{
		"setup_s":           stats.Median(setups),
		"cpu_s":             cpu1 - cpu0,
		"sim_makespan_s":    simMakespan,
		"sim_solve_s":       simSolve,
		"peak_rss_mb":       rss,
		"serve.world_s":     stats.Mean(worldS),
		"serve.first_row_s": stats.Mean(firstS),
		"serve.wall_s":      wall,
	}
	res.table = m
	list := endToEnd
	if o.trace {
		t := layers(ctx, sc, v, samples, worldS)
		for k, x := range t.metrics {
			m[k] = x
		}
		res.out.Attempted += t.attempted
		res.out.Failed += len(t.problems)
		res.problems = t.problems
		for _, why := range t.invalid {
			res.notes = append(res.notes, "PER-LAYER NUMBERS INVALID: "+why)
		}
		list = perLayer
	}
	res.problems = append(v.problems, res.problems...)
	res.out.Failed += v.failed()
	res.out.Correct = res.out.Failed == 0
	res.out.Metrics = map[string]metric{}
	for _, e := range list {
		val, ok := m[e.name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("metric %s was not measured", e.name)
		}
		res.out.Metrics[e.name] = metric{Value: val, Unit: e.unit}
	}
	return res, nil
}

// setUp spawns the daemon until enough set-up time has been measured
// and returns the last spawn, still serving, with every spawn's time.
func setUp(ctx context.Context, sc *script) (*daemon, []float64, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, sc.daemonArgs...)
	var times []float64
	var total float64
	for {
		d, took, err := spawn(ctx, filepath.Join(binDir, "plumserve"), args)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		total += took.Seconds()
		if (len(times) >= minSpawns && total >= minSetupSeconds) || len(times) >= maxSpawns {
			return d, times, nil
		}
		if err := d.discard(); err != nil {
			return nil, nil, err
		}
	}
}

// timings describes where a run's host time went: each phase of the
// script from its first POST to its last byte, and each simulated world.
func timings(replies []*reply, leaders []*reply) []string {
	var order []string
	span := map[string][2]time.Time{}
	for _, r := range replies {
		s, ok := span[r.phase]
		if !ok {
			order = append(order, r.phase)
			s[0] = r.sent
		}
		if end := r.sent.Add(r.end); end.After(s[1]) {
			s[1] = end
		}
		span[r.phase] = s
	}
	var out []string
	for _, ph := range order {
		out = append(out, fmt.Sprintf("phase %-22s %8.3fs", ph, span[ph][1].Sub(span[ph][0]).Seconds()))
	}
	for _, l := range leaders {
		out = append(out, fmt.Sprintf("world %-22s %8.3fs  first row %6.3fs  (%s)",
			l.req.label, l.end.Seconds(), l.firstRow.Seconds(), l.phase))
	}
	return out
}

// printTable writes the human-readable summary, fail_ratio included.
func (r *result) printTable(w io.Writer, o options) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", o.workload, o.seed, o.trace)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	units := map[string]string{}
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, e := range l {
			units[e.name] = e.unit
		}
	}
	names := make([]string, 0, len(r.table))
	for n := range r.table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, r.table[n], units[n])
	}
	fmt.Fprintf(w, "  %-30s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio",
		float64(r.out.Failed)/float64(r.out.Attempted), r.out.Failed, r.out.Attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}
