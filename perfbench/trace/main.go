// Command trace is the benchmark's traced replay.  It runs the worlds of
// a served benchmark run again, in process and one at a time, through a
// bench-local copy of the serving epoch loop (core.RunWorldCtx driving
// core.Unsteady.Cycle) written against the layers' public calls.  Rank 0
// records a host-time span, and for the heavy calls a heap-allocation
// delta, around each call; simulated per-phase numbers come from the
// calls' return values and from the critical path of each epoch's event
// trace.
//
// The replay renders each world's response body exactly as the daemon
// does.  The harness trusts the per-layer numbers only when those bodies
// equal the served ones byte for byte: if the program's epoch loop
// changes and this copy does not follow, the rows diverge and the
// numbers are flagged instead of silently measuring another program.
//
// Usage: trace -job job.json > result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/profile"
	"plum/internal/remap"
	"plum/internal/scenario"
	"plum/internal/serve"
	"plum/internal/solver"

	"plum/perfbench/internal/job"
)

func main() {
	jobPath := flag.String("job", "", "job file naming the worlds to replay")
	flag.Parse()
	if err := run(*jobPath); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

func run(jobPath string) error {
	data, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var j job.Job
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("%s: %v", jobPath, err)
	}
	r := &replayer{layers: map[string]float64{}}
	specs := map[string]*scenario.Spec{}
	if j.ScenarioDir != "" {
		list, err := scenario.LoadDir(j.ScenarioDir)
		if err != nil {
			return err
		}
		for _, sp := range list {
			specs[sp.Name] = sp
		}
	}
	r.host("core.harness_s", func() { r.exp = core.NewExperiments(j.Paper) })

	res := job.Result{Layers: r.layers}
	for _, text := range j.Requests {
		w, err := r.world(text, specs)
		if err != nil {
			return fmt.Errorf("request %s: %v", text, err)
		}
		res.Worlds = append(res.Worlds, w)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// replayer accumulates per-layer totals over the replayed worlds.  Only
// the calling goroutine and rank 0 of the (single) running world write
// to it, never both at once.
type replayer struct {
	exp    *core.Experiments
	layers map[string]float64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// host times f on the calling goroutine into the named layer total.
func (r *replayer) host(name string, f func()) {
	t0 := time.Now()
	f()
	r.layers[name] += time.Since(t0).Seconds()
}

// span runs f on every rank and, on rank 0, adds its host seconds to
// name and (when allocName is set) the heap bytes allocated meanwhile,
// by all ranks, to allocName in MiB.
func (r *replayer) span(c *msg.Comm, name, allocName string, f func()) {
	if c.Rank() != 0 {
		f()
		return
	}
	var a0 uint64
	if allocName != "" {
		a0 = allocBytes()
	}
	r.host(name, f)
	if allocName != "" {
		r.layers[allocName] += float64(allocBytes()-a0) / (1 << 20)
	}
}

// world replays one request and renders the body the daemon would serve.
func (r *replayer) world(text string, specs map[string]*scenario.Spec) (job.World, error) {
	req, err := serve.ParseRequest(strings.NewReader(text))
	if err != nil {
		return job.World{}, err
	}
	ws, err := req.Spec(specs)
	if err != nil {
		return job.World{}, err
	}
	start := time.Now()
	rows, simTime, converged, err := r.replay(ws)
	if err != nil {
		return job.World{}, err
	}
	return job.World{
		Request:      text,
		Body:         string(serve.RenderBody(rows, simTime, req.Digest())),
		WallS:        time.Since(start).Seconds(),
		PCGConverged: converged,
	}, nil
}

// mapperByName mirrors the scenario loader's mapper naming.
func mapperByName(name string) core.Mapper {
	switch name {
	case "opt":
		return core.MapOptMWBG
	case "bmcm":
		return core.MapOptBMCM
	case "topo":
		return core.MapTopo
	}
	return core.MapHeuristic
}

// seedFrac and serveIndicator mirror the serving path's seeded moving
// shock: a SplitMix64 finalizer step maps the seed to a starting offset.
func seedFrac(seed int64) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

func serveIndicator(e *core.Experiments, cycles int, seed int64) func(i int) func(mesh.Vec3) float64 {
	den := max(cycles-1, 1)
	off := 0.2 * seedFrac(seed)
	return func(i int) func(mesh.Vec3) float64 {
		x := (0.2 + off + 0.5*float64(i)/float64(den)) * e.LX
		return adapt.ShockCylinderIndicator(
			mesh.Vec3{x, e.LY / 2, 0}, mesh.Vec3{0, 0, 1},
			0.35*e.LY, 0.17*e.LY)
	}
}

// never is the stop hook of a request nobody cancels: the served loop
// still runs its stop-agreement collectives, so the replay must too.
func never() bool { return false }

// replay drives one world the way the serving path does, with spans.
// The event trace is always recorded (observation only: rows must still
// match an untraced served world) so every epoch has a critical path.
func (r *replayer) replay(ws core.WorldSpec) (rows []serve.Row, simTime float64, converged bool, err error) {
	e := r.exp
	sp := ws.Scenario
	p, cycles := ws.P, ws.Cycles
	var (
		topo machine.Model
		dyn  *scenario.CycleSpeed
	)
	if sp != nil {
		p, cycles = sp.P, sp.Cycles
		if topo, dyn, err = sp.BuildMachine(); err != nil {
			return nil, 0, false, err
		}
	} else if ws.Model != "" {
		if topo, err = machine.ByName(ws.Model, p); err != nil {
			return nil, 0, false, err
		}
	}
	mod := e.Model
	popt := e.Cfg.PartOpts
	if topo != nil {
		mod = e.Model.WithTopo(topo)
		popt.TargetShares = machine.SpeedShares(topo, p)
	}
	var initPart []int32
	r.host("partition.initial_s", func() { initPart = partition.Partition(e.Dual, p, popt) })

	converged = true
	body := func(c *msg.Comm) {
		var d *pmesh.DistMesh
		r.span(c, "pmesh.distribute_s", "", func() { d = pmesh.New(c, e.Global, initPart, solver.NComp) })
		cfg := e.Cfg
		if ws.Workload == core.WorkloadImplicit || sp != nil {
			// The serving regime: one implicit step per adaption and the
			// implicit migration payload.
			cfg.Workload = core.WorkloadImplicit
			cfg.NAdapt = 1
			cfg.Machine.M *= 3
		}
		cfg.Topo = topo
		cfg.ForceAccept = false
		cfg.Measured = ws.Measured
		cfg.Mapper = ws.Mapper
		if sp != nil {
			cfg.Mapper = mapperByName(sp.Mapper)
		}
		if cfg.Mapper == core.MapOptBMCM || cfg.Mapper == core.MapTopo {
			cfg.Metric = remap.MaxV
		}
		u := core.NewUnsteady(d, e.Dual, cfg)
		frac, below := 0.12, 0.05
		var indicator func(int) func(mesh.Vec3) float64
		if sp != nil {
			below = sp.CoarsenBelow
			indicator = sp.Indicator(scenario.Domain{LX: e.LX, LY: e.LY})
		} else {
			if ws.Frac > 0 {
				frac = ws.Frac
			}
			if ws.CoarsenBelow > 0 {
				below = ws.CoarsenBelow
			}
			indicator = serveIndicator(e, cycles, ws.Seed)
		}
		u.PS.InitParallel(solver.GaussianPulse(mesh.Vec3{e.LX / 2, e.LY / 2, 0.6}, 0.5))
		var prof *profile.Profile
		for i := 0; i < cycles; i++ {
			c.Barrier()
			if dyn != nil {
				dyn.SetCycle(i)
			}
			core.CollectiveStop(c, never)
			if sp != nil {
				frac = sp.FracAt(i)
			}
			st, solveTime, conv := r.cycle(c, u, i, indicator(i), frac, below, &prof)
			if c.Rank() == 0 {
				rows = append(rows, serve.RowFromEpoch(core.FeedbackEpoch{
					Cycle:     i,
					Balanced:  st.Balanced,
					Accepted:  st.Accepted,
					Measured:  st.MeasuredDecision,
					Gain:      st.Gain,
					Cost:      st.Cost,
					TotalV:    st.Moved.CTotal,
					MaxV:      st.Moved.CMax,
					Elems:     st.Counts.Elems,
					SolveTime: solveTime,
				}))
				converged = converged && conv
			}
		}
	}
	times, _ := msg.RunTraced(p, mod, body)
	return rows, msg.MaxTime(times), converged, nil
}

// cycle mirrors one Unsteady.Cycle: coarsen, adaption step, solver
// rebuild, the solve loop with its stop checkpoints, the measured-cost
// profile hand-off, and the closing work and mass reductions.
func (r *replayer) cycle(c *msg.Comm, u *core.Unsteady, i int, ind func(mesh.Vec3) float64,
	frac, below float64, prof **profile.Profile) (st core.StepStats, solveTime float64, converged bool) {

	tr := c.Trace()
	cycleStart := 0
	if c.Rank() == 0 {
		cycleStart = len(tr.Records)
	}
	if below > 0 && i > 0 {
		c.PushPhase(event.PhaseCoarsen)
		r.span(c, "adapt.coarsen_s", "", func() { u.D.ParallelCoarsen(ind, below) })
		c.PopPhase()
	}
	gv := u.G.WithWeights(u.G.WComp, u.G.WRemap)
	cfg := u.Cfg
	if c.Rank() == 0 {
		cfg.Profile = *prof
	}
	r.span(c, "adapt.step_s", "adapt.step_alloc_mb", func() { st = core.AdaptionStep(c, u.D, gv, ind, frac, cfg) })
	if u.IS != nil {
		r.span(c, "linalg.setup_s", "linalg.setup_alloc_mb", u.IS.Rebuild)
	} else {
		r.span(c, "solver.rebuild_s", "", u.PS.Rebuild)
	}

	n := max(u.Cfg.NAdapt, 1)
	lapStart := c.Elapsed()
	work, iters := 0, 0
	converged = true
	for it := 0; it < n; it++ {
		c.PushPhase(event.PhaseSolve)
		if u.IS != nil {
			var res solver.ImplicitResult
			r.span(c, "linalg.pcg_s", "linalg.pcg_alloc_mb", func() { res = u.IS.Step() })
			work += res.Work
			iters += res.Iterations
			converged = converged && res.Converged
		} else {
			r.span(c, "solver.explicit_s", "solver.explicit_alloc_mb", func() { work += u.PS.Step(u.DT) })
		}
		c.PopPhase()
		// The serving loop's stop checkpoint: every 8th iteration but
		// the last, an agreement allreduce that never fires here.
		if it+1 < n && (it+1)%8 == 0 {
			core.CollectiveStop(c, never)
		}
	}
	solveTime = c.AllreduceFloat64(c.Elapsed()-lapStart, msg.MaxFloat64)
	c.Barrier()

	if c.Rank() == 0 {
		end := len(tr.Records)
		if u.Cfg.Measured {
			p := profile.FromTrace(tr, cycleStart, end, nil)
			p.SolveSeconds = solveTime
			p.SolveSteps = n
			topo := u.Cfg.Topo
			if topo == nil {
				topo = machine.NewFlat(c.Size(), machine.SP2Link())
			}
			p.Rates = machine.CalibrateRates(tr.Records[cycleStart:end], topo)
			*prof = p
		}
		cp := event.CriticalPath(&event.Trace{P: c.Size(), Records: tr.Records[cycleStart:end:end]})
		r.layers["event.cp_compute_sim_s"] += cp.Compute
		r.layers["event.cp_overhead_sim_s"] += cp.Overhead
		r.layers["event.cp_wait_sim_s"] += cp.CommWait

		r.layers["adapt.mark_sim_s"] += st.MarkTime
		r.layers["adapt.refine_sim_s"] += st.RefineTime
		r.layers["partition.repart_sim_s"] += st.PartitionTime
		r.layers["remap.reassign_sim_s"] += st.ReassignTime
		r.layers["pmesh.migrate_sim_s"] += st.RemapTime
		r.layers["remap.total_v"] += float64(st.Moved.CTotal)
		r.layers["pmesh.migrate_bytes"] += float64(st.Mig.BytesSent)
		r.layers["linalg.pcg_iters"] += float64(iters)
		if !st.Balanced {
			r.layers["balance.repartitions"]++
			if st.Accepted {
				r.layers["balance.accepted"]++
			}
		}
	}
	c.AllreduceInt64(int64(work), msg.MaxInt64)
	c.AllreduceInt64(int64(work), msg.SumInt64)
	if u.IS != nil {
		u.IS.GlobalMass()
	} else {
		u.PS.GlobalMass()
	}
	return st, solveTime, converged
}
