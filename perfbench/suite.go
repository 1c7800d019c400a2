package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"time"

	orion "repro"
	"repro/internal/core"
)

// suiteScale is paper-suite's grid scale: the 1/16 scale `go test
// -bench` uses for the suite.
const suiteScale = 0.0625

// suiteMinPasses is the fewest timed passes a paper-suite run makes; the
// live heap is sampled after the last of them, so it always covers the
// same amount of work.
const suiteMinPasses = 2

// suiteCrossChecks is how many seeded launches each pass re-simulates on
// the interpreter backend.
const suiteCrossChecks = 2

// suitePass is one pass over every experiment.
type suitePass struct {
	wall   time.Duration
	expMS  map[string]float64
	tables map[string]*orion.ResultTable
	delta  counters
}

// runSuitePass resets the memo caches (as a fresh orion-bench
// invocation starts with them empty) and runs every experiment in paper
// order, recording each as an operation on res.
func runSuitePass(s *orion.Suite, col *orion.Collector, res *result) *suitePass {
	core.ResetRealizeCache()
	core.ResetRunCache()
	s.Obs = col
	p := &suitePass{expMS: map[string]float64{}, tables: map[string]*orion.ResultTable{}}
	before := snapCounters()
	start := time.Now()
	for _, ex := range s.Experiments() {
		t0 := time.Now()
		tbl, err := ex.Run()
		p.expMS[ex.ID] = ms(time.Since(t0))
		res.attempted++
		if err != nil {
			res.fail("experiment %s: %v", ex.ID, err)
			continue
		}
		p.tables[ex.ID] = tbl
	}
	p.wall = time.Since(start)
	p.delta = snapCounters().since(before)
	s.Obs = nil
	return p
}

func runSuite(e *env) (*result, error) {
	res := newResult()
	ks, err := orion.Benchmarks()
	if err != nil {
		return nil, err
	}
	s := orion.NewSuite(suiteScale)
	// Experiments run their rows one at a time: with rows in parallel the
	// pass time depends on how the heavy rows happen to pair up, which
	// spread passes by ±8% on 2 cores against ±2% serial. The simulator's
	// per-SM goroutines and Sweep's level fan-out still use every core.
	s.Parallel = 1
	s.Backend = orion.SimBackendCompiled
	res.prov["grid_scale"] = suiteScale
	res.prov["suite_parallel"] = s.Parallel

	// The cold first pass is set-up: it fills the process-global memos an
	// orion-bench user pays for once per invocation.
	warm := newResult()
	ref := runSuitePass(s, nil, warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v", warm.problems)
	}
	product, err := suiteProduct(ref.tables)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeapMiB()
	setup := time.Since(e.start)

	rng := rand.New(rand.NewSource(e.seed))
	var walls, tracedWalls []float64
	expMS := map[string][]float64{}
	selfMS := map[string]float64{}
	var heap float64
	t0 := time.Now()
	for pass := 0; another(pass, suiteMinPasses, t0, e.seconds); pass++ {
		// A traced run times its first pass untraced, as the reference
		// for the tracing overhead.
		var col *orion.Collector
		if e.trace && pass > 0 {
			col = orion.NewCollector()
		}
		p := runSuitePass(s, col, res)
		fmt.Printf("pass %d: %.3f s (traced %v)\n", pass, p.wall.Seconds(), col != nil)
		for id, t := range p.tables {
			res.check(t.String() == ref.tables[id].String(), "pass %d: %s table differs from the warm-up pass", pass, id)
		}
		res.check(p.delta.sim == ref.delta.sim, "pass %d: simulated counters differ from the warm-up pass: %+v vs %+v", pass, p.delta.sim, ref.delta.sim)
		crossCheckBackends(rng, ks, res)

		if col == nil {
			walls = append(walls, p.wall.Seconds())
			for id, t := range p.expMS {
				expMS[id] = append(expMS[id], t)
			}
		} else {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			if err := collectorSelfTimes(col, selfMS); err != nil {
				return nil, err
			}
			setProcessMetrics(p.delta, res.layer)
			setCollectorCounters(col, res.layer)
		}
		if pass+1 == suiteMinPasses {
			heap = liveHeapMiB()
		}
	}

	wall := median(walls)
	// Each experiment does the same work every pass, so the latency
	// median is taken over the experiments' median latencies.
	var expLat []float64
	for _, ts := range expMS {
		expLat = append(expLat, median(ts))
	}
	nexp := float64(len(ref.expMS))
	res.e2e = map[string]float64{
		"setup_s":       setup.Seconds(),
		"wall_s":        wall,
		"p50_ms":        median(expLat),
		"max_rate_rps":  nexp / wall,
		"success_pct":   successPct(res),
		"live_heap_mib": heap,
	}
	if e.trace {
		for _, l := range traceLayers {
			res.layer[l+".self_ms"] = selfMS[l] / float64(len(tracedWalls))
		}
		for id, ts := range expMS {
			res.layer["suite."+id+"_ms"] = median(ts)
		}
		res.layer["sim.minstr_per_s"] = res.layer["sim.instructions"] / 1e6 / wall
		res.layer["retained_heap_mib"] = heap - heap0
		res.layer["trace.overhead"] = median(tracedWalls) / wall
		for k, v := range product {
			res.layer[k] = v
		}
	}
	res.prov["product"] = product
	return res, nil
}

func successPct(res *result) float64 {
	return 100 * float64(res.attempted-res.failed) / float64(res.attempted)
}

// suiteGrid is the suite's grid for a kernel at suiteScale (block
// aligned, at least four blocks), so re-simulated launches match the
// ones the experiments made.
func suiteGrid(k *orion.Kernel) int {
	wpb := k.Prog.BlockDim / 32
	g := int(float64(k.GridWarps) * suiteScale)
	if g < 4*wpb {
		g = 4 * wpb
	}
	return g / wpb * wpb
}

// crossCheckBackends re-simulates a seeded sample of launches on the
// interpreter backend, the reference the compiled backend must match
// bit for bit, and restores the compiled backend.
func crossCheckBackends(rng *rand.Rand, ks []*orion.Kernel, res *result) {
	devs := orion.Devices()
	for done, tries := 0, 0; done < suiteCrossChecks && tries < 20; tries++ {
		k := ks[rng.Intn(len(ks))]
		d := devs[rng.Intn(len(devs))]
		levels := orion.OccupancyLevels(d, k.Prog.BlockDim)
		lvl := levels[rng.Intn(len(levels))]
		v, err := orion.NewRealizer(d, orion.SmallCache).Realize(k.Prog, lvl)
		if infeasible(err) {
			continue
		}
		done++
		if err != nil {
			res.check(false, "cross-backend %s/%s@%d: realize: %v", k.Name, d.Name, lvl, err)
			continue
		}
		grid := suiteGrid(k)
		compiled, errC := orion.Simulate(v, d, orion.SmallCache, lvl, grid)
		orion.SetSimBackend(orion.SimBackendInterp)
		interp, errI := orion.Simulate(v, d, orion.SmallCache, lvl, grid)
		orion.SetSimBackend(orion.SimBackendCompiled)
		res.check(errC == nil && errI == nil && reflect.DeepEqual(*compiled, *interp),
			"cross-backend %s/%s@%d: compiled and interpreter Stats differ (errors %v, %v)", k.Name, d.Name, lvl, errC, errI)
	}
}

var speedupNote = regexp.MustCompile(`^(\S+) average Orion-Select speedup: ([-0-9.]+)%$`)

// suiteProduct extracts the simulated product metrics from the Fig. 11,
// 12 and 13 tables.
func suiteProduct(tables map[string]*orion.ResultTable) (map[string]float64, error) {
	out := map[string]float64{}
	for _, note := range tables["fig11"].Notes {
		if m := speedupNote.FindStringSubmatch(note); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, err
			}
			out["select_speedup_"+strings.TrimPrefix(strings.ToLower(m[1]), "tesla")+"_pct"] = v
		}
	}
	col := func(id string, c int) (float64, error) {
		var sum float64
		rows := tables[id].Rows
		for _, r := range rows {
			v, err := strconv.ParseFloat(r[c], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", id, err)
			}
			sum += v
		}
		return sum / float64(len(rows)), nil
	}
	regs, err := col("fig12", 2)
	if err != nil {
		return nil, err
	}
	runtime, err := col("fig12", 3)
	if err != nil {
		return nil, err
	}
	energy, err := col("fig13", 1)
	if err != nil {
		return nil, err
	}
	out["reg_util_pct"] = regs * 100
	out["downward_runtime_ratio"] = runtime
	out["energy_ratio"] = energy
	if len(out) != 5 {
		return nil, fmt.Errorf("fig11 notes lack a per-device average speedup: %q", tables["fig11"].Notes)
	}
	return out, nil
}
