// Package job is the file format between the benchmark harness and the
// traced replay: which worlds to replay, and what the replay measured.
package job

// Job names the worlds a traced replay runs, one at a time.
type Job struct {
	Paper       bool     `json:"paper"`                  // paper-scale harness (plumserve -paper)
	ScenarioDir string   `json:"scenario_dir,omitempty"` // corpus the requests may name
	Requests    []string `json:"requests"`               // raw POST /run bodies, one per world
}

// World is one replayed world.
type World struct {
	Request      string  `json:"request"`
	Body         string  `json:"body"`   // the response body the daemon would serve
	WallS        float64 `json:"wall_s"` // host seconds for the whole world
	PCGConverged bool    `json:"pcg_converged"`
}

// Result is the replay's output: the worlds in job order and the
// per-layer totals over all of them.
type Result struct {
	Worlds []World            `json:"worlds"`
	Layers map[string]float64 `json:"layers"`
}
