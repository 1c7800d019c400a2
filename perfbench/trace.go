package main

import (
	"bytes"
	"encoding/json"

	orion "repro"
)

// spanLayer maps the span names the program and perfbench record onto
// the layers the per-layer metrics are named after. Spans not listed are
// ignored rather than guessed: the suite's "experiment" span (its time
// is reported as suite.<id>_ms) and instrumentation added later.
var spanLayer = map[string]string{
	"bench.parse": "isa",
	"validate":    "isa",

	"sa.analyze":    "sa",
	"sa.diagnostic": "sa",

	"opt.pipeline": "opt",

	"regalloc.prepare": "regalloc",
	"regalloc":         "regalloc",
	"webs":             "regalloc",
	"liveness":         "regalloc",
	"color":            "regalloc",
	"spill":            "regalloc",

	"interproc":   "interproc",
	"km-matching": "interproc",

	"bench.realize":  "core",
	"realize":        "core",
	"realize.cached": "core",
	"compile":        "core",
	"maxlive":        "core",
	"tune":           "core",
	"tune-iter":      "core",
	"tune-static":    "core",
	"static-select":  "core",
	"sweep":          "core",
	"baseline":       "core",

	"verify":           "verify",
	"verify.violation": "verify",

	"simulate":        "sim",
	"simulate.cached": "sim",
	"profile":         "sim",

	"serve.tune":    "serve",
	"bench.request": "client",
}

// traceLayers are the layers whose self time is reported as
// "<layer>.self_ms".
var traceLayers = []string{"isa", "sa", "opt", "regalloc", "interproc", "core", "verify", "sim", "serve", "client"}

// chromeTrace is the subset of the Chrome trace-event export read back.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Dur  float64        `json:"dur"` // microseconds
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// addSelfTimes adds each span's self time (its duration minus the
// durations of its direct children, floored at zero because children
// forked onto parallel workers can overlap) to its layer, in ms.
func addSelfTimes(trace []byte, into map[string]float64) error {
	var doc chromeTrace
	if err := json.Unmarshal(trace, &doc); err != nil {
		return err
	}
	children := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if parent, ok := ev.Args["parent_id"].(string); ok {
			children[parent] += ev.Dur
		}
	}
	for _, ev := range doc.TraceEvents {
		layer, ok := spanLayer[ev.Name]
		if ev.Ph != "X" || !ok {
			continue
		}
		id, _ := ev.Args["span_id"].(string)
		if self := ev.Dur - children[id]; self > 0 {
			into[layer] += self / 1e3
		}
	}
	return nil
}

// collectorSelfTimes aggregates a collector's spans by layer.
func collectorSelfTimes(c *orion.Collector, into map[string]float64) error {
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		return err
	}
	return addSelfTimes(buf.Bytes(), into)
}

// collectorCounters maps the program's obs counter names onto the
// per-layer metric names they are reported under.
var collectorCounters = map[string]string{
	"verify.checks":             "verify.checks",
	"verify.violations":         "verify.violations",
	"opt.remat.recomputed":      "opt.remat_recomputed",
	"opt.chainremat.recomputed": "opt.chainremat_recomputed",
	"opt.split.webs":            "opt.split_webs",
	"opt.sched.maxlive_delta":   "opt.maxlive_delta",
	"regalloc.runs":             "regalloc.runs",
	"regalloc.rounds":           "regalloc.rounds",
	"regalloc.recolors":         "regalloc.recolors",
	"regalloc.spilled_vars":     "regalloc.spilled_vars",
	"regalloc.coalesced_moves":  "regalloc.coalesced_moves",
	"interproc.km_matchings":    "interproc.km_matchings",
	"interproc.movements":       "interproc.movements",
	"sa.checks":                 "sa.checks",
	"sa.diagnostics":            "sa.diagnostics",
	"tune.runs":                 "core.tune_runs",
	"tune.iterations":           "core.tune_iterations",
}

// setCollectorCounters writes the counters a collector gathered over one
// unit of work as per-layer metrics.
func setCollectorCounters(c *orion.Collector, layer map[string]float64) {
	snap := c.Metrics().Snapshot()
	for from, to := range collectorCounters {
		layer[to] = float64(snap.Counters[from])
	}
}
