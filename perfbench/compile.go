package main

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sync"
	"time"

	orion "repro"
	"repro/internal/core"
)

// compileMinPasses is the fewest timed passes a compile-cold run makes;
// the live heap is sampled after the last of them.
const compileMinPasses = 3

// compileChecks is how many realized versions per pass are executed
// against their original program.
const compileChecks = 6

// compileCheckBlocks is the grid, in blocks, of those executions.
const compileCheckBlocks = 4

// compileJob is one ladder: a kernel on one device and cache split.
type compileJob struct {
	kernel int
	dev    *orion.Device
	cc     orion.CacheConfig
}

// compilePass is one pass's outcome.
type compilePass struct {
	wall       time.Duration
	parseMS    float64
	realizeMS  []float64
	feasible   int
	infeasible int
	spills     int
	delta      counters
	progs      []*orion.Program
	// kept holds the realized versions picked for checking, by
	// (job, level) index.
	kept map[[2]int]*orion.Version
}

var kernelDirective = regexp.MustCompile(`(?m)^\.kernel\s+\S+`)

// renameKernel rewrites a kernel source's .kernel directive, which gives
// the program a new fingerprint for identical work.
func renameKernel(src, name string) string {
	return kernelDirective.ReplaceAllLiteralString(src, ".kernel "+name)
}

func compileJobs(ks []*orion.Kernel) []compileJob {
	var jobs []compileJob
	for i := range ks {
		for _, d := range orion.Devices() {
			for _, cc := range []orion.CacheConfig{orion.SmallCache, orion.LargeCache} {
				jobs = append(jobs, compileJob{i, d, cc})
			}
		}
	}
	return jobs
}

// runCompilePass parses every kernel afresh under a pass-unique name and
// realizes every occupancy level of every job through one ladder per
// job, nproc jobs at a time. Versions whose (job, level) index is in
// keep are kept for checking. Failures other than infeasibility are
// recorded on res.
func runCompilePass(e *env, ks []*orion.Kernel, tag string, col *orion.Collector, keep map[[2]int]bool, res *result) (*compilePass, error) {
	core.ResetRealizeCache()
	core.ResetRunCache()
	p := &compilePass{progs: make([]*orion.Program, len(ks)), kept: map[[2]int]*orion.Version{}}
	before := snapCounters()
	start := time.Now()
	for i, k := range ks {
		sp := col.StartSpan("bench.parse")
		t0 := time.Now()
		prog, err := orion.ParseKernel(renameKernel(k.Source, fmt.Sprintf("%s_%s", k.Name, tag)))
		p.parseMS += ms(time.Since(t0))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", k.Name, err)
		}
		p.progs[i] = prog
	}

	jobs := compileJobs(ks)
	var mu sync.Mutex
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				job := jobs[j]
				r := orion.NewRealizer(job.dev, job.cc)
				r.Opt = true
				r.TV = orion.TVStrict
				prog := p.progs[job.kernel]
				lad := r.NewLadder(prog)
				for li, lvl := range orion.OccupancyLevels(job.dev, prog.BlockDim) {
					sp := col.StartSpan("bench.realize")
					t0 := time.Now()
					v, err := lad.RealizeCtx(lvl, sp.Ctx())
					d := ms(time.Since(t0))
					sp.End()
					mu.Lock()
					p.realizeMS = append(p.realizeMS, d)
					switch {
					case infeasible(err):
						p.infeasible++
					case err != nil:
						res.fail("realize %s on %s/%v at %d warps: %v", prog.Name, job.dev.Name, job.cc, lvl, err)
					default:
						p.feasible++
						p.spills += spillInstrs(v.Prog)
						if keep[[2]int{j, li}] {
							p.kept[[2]int{j, li}] = v
						}
					}
					mu.Unlock()
				}
			}
		}()
	}
	for j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	p.wall = time.Since(start)
	p.delta = snapCounters().since(before)
	res.attempted += len(p.realizeMS)
	return p, nil
}

// infeasible reports whether err says a level cannot be realized, the
// one realization error that is not a failure.
func infeasible(err error) bool {
	var e *core.ErrInfeasible
	return errors.As(err, &e)
}

func spillInstrs(p *orion.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			if f.Instrs[i].IsSpill() {
				n++
			}
		}
	}
	return n
}

// sampleVersions picks compileChecks seeded (job, level) indices.
func sampleVersions(rng *rand.Rand, ks []*orion.Kernel, jobs []compileJob) map[[2]int]bool {
	keep := map[[2]int]bool{}
	for len(keep) < compileChecks {
		j := rng.Intn(len(jobs))
		levels := orion.OccupancyLevels(jobs[j].dev, ks[jobs[j].kernel].Prog.BlockDim)
		keep[[2]int{j, rng.Intn(len(levels))}] = true
	}
	return keep
}

// checkVersions executes each kept version and its original program on
// the functional interpreter; the store checksums must agree whatever
// the realizer's own verifier concluded.
func checkVersions(p *compilePass, jobs []compileJob, res *result) {
	for idx, v := range p.kept {
		orig := p.progs[jobs[idx[0]].kernel]
		grid := compileCheckBlocks * orig.BlockDim / 32
		want, _, errW := orion.Execute(orig, grid)
		got, _, errG := orion.Execute(v.Prog, grid)
		res.check(errW == nil && errG == nil && want == got,
			"%s at %d warps: checksum %016x, original %016x (errors %v, %v)", v.Prog.Name, v.TargetWarps, got, want, errG, errW)
	}
}

func runCompile(e *env) (*result, error) {
	res := newResult()
	ks, err := orion.Benchmarks()
	if err != nil {
		return nil, err
	}
	jobs := compileJobs(ks)
	rng := rand.New(rand.NewSource(e.seed))
	tag := func(pass string) string { return fmt.Sprintf("s%d_%s", e.seed, pass) }

	// The untimed warm-up pass is set-up; it also fixes the reference
	// outcome every timed pass must reproduce.
	warm := newResult()
	ref, err := runCompilePass(e, ks, tag("warm"), nil, nil, warm)
	if err != nil || warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v %v", err, warm.problems)
	}
	heap0 := liveHeapMiB()
	setup := time.Since(e.start)

	var walls, tracedWalls, realizeMS []float64
	var parseMS float64
	selfMS := map[string]float64{}
	var heap float64
	t0 := time.Now()
	for pass := 0; another(pass, compileMinPasses, t0, e.seconds); pass++ {
		var col *orion.Collector
		if e.trace && pass > 0 {
			col = orion.NewCollector()
		}
		p, err := runCompilePass(e, ks, tag(fmt.Sprint(pass)), col, sampleVersions(rng, ks, jobs), res)
		if err != nil {
			return nil, err
		}
		fmt.Printf("pass %d: %.3f s (traced %v)\n", pass, p.wall.Seconds(), col != nil)
		res.check(p.feasible == ref.feasible && p.infeasible == ref.infeasible && p.spills == ref.spills,
			"pass %d: %d feasible, %d infeasible, %d spill instructions; warm-up had %d, %d, %d",
			pass, p.feasible, p.infeasible, p.spills, ref.feasible, ref.infeasible, ref.spills)
		res.check(p.delta.tvRejected == 0, "pass %d: translation validation rejected %d pass applications", pass, p.delta.tvRejected)
		checkVersions(p, jobs, res)

		if col == nil {
			walls = append(walls, p.wall.Seconds())
			realizeMS = append(realizeMS, p.realizeMS...)
			parseMS = p.parseMS
		} else {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			if err := collectorSelfTimes(col, selfMS); err != nil {
				return nil, err
			}
			setProcessMetrics(p.delta, res.layer)
			setCollectorCounters(col, res.layer)
		}
		if pass+1 == compileMinPasses {
			heap = liveHeapMiB()
		}
	}

	wall := median(walls)
	res.e2e = map[string]float64{
		"setup_s":       setup.Seconds(),
		"wall_s":        wall,
		"p50_ms":        median(realizeMS),
		"max_rate_rps":  float64(ref.feasible+ref.infeasible) / wall,
		"success_pct":   successPct(res),
		"live_heap_mib": heap,
	}
	product := map[string]float64{"spill_instrs": float64(ref.spills), "feasible_levels": float64(ref.feasible)}
	if e.trace {
		for _, l := range traceLayers {
			res.layer[l+".self_ms"] = selfMS[l] / float64(len(tracedWalls))
		}
		res.layer["isa.parse_ms"] = parseMS
		res.layer["isa.programs"] = float64(len(ks))
		res.layer["core.realize_p50_ms"] = median(realizeMS)
		res.layer["core.realize_p90_ms"] = quantile(realizeMS, 0.9)
		res.layer["retained_heap_mib"] = heap - heap0
		res.layer["trace.overhead"] = median(tracedWalls) / wall
		for k, v := range product {
			res.layer[k] = v
		}
	}
	res.prov["product"] = product
	res.prov["realizations_per_pass"] = ref.feasible + ref.infeasible
	return res, nil
}
