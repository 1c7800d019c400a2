package main

import (
	orion "repro"
)

// counters is a snapshot of the process-wide counters the program keeps
// whether or not a collector is attached: simulation totals, the memo
// caches and ladder, translation validation, and allocation volume.
type counters struct {
	sim                                orion.SimTotals
	cache                              orion.CacheSnapshot
	tvChecked, tvRejected, tvAbstained uint64
	allocMiB                           float64
}

func snapCounters() counters {
	c := counters{sim: orion.SnapshotSimTotals(), cache: orion.SnapshotCacheCounters(), allocMiB: allocatedMiB()}
	c.tvChecked, c.tvRejected, c.tvAbstained = orion.TVCounters()
	return c
}

// since returns the counter movement from an earlier snapshot.
func (c counters) since(prev counters) counters {
	return counters{
		sim:         c.sim.Delta(prev.sim),
		cache:       c.cache.Delta(prev.cache),
		tvChecked:   c.tvChecked - prev.tvChecked,
		tvRejected:  c.tvRejected - prev.tvRejected,
		tvAbstained: c.tvAbstained - prev.tvAbstained,
		allocMiB:    c.allocMiB - prev.allocMiB,
	}
}

// setProcessMetrics writes the counter movement over one unit of work
// (a pass, or the traffic phase) as per-layer metrics.
func setProcessMetrics(d counters, layer map[string]float64) {
	s := d.sim
	f := func(v uint64) float64 { return float64(v) }
	layer["sim.launches"] = f(s.Launches)
	layer["sim.instructions"] = f(s.Instructions)
	layer["sim.cycles"] = f(s.Cycles)
	layer["sim.stall_mem"] = f(s.StallMem)
	layer["sim.stall_alu"] = f(s.StallALU)
	layer["sim.stall_barrier"] = f(s.StallBarrier)
	layer["sim.stall_mshr"] = f(s.StallMSHR)
	layer["sim.dram_lines"] = f(s.DRAMLines)
	layer["sim.spill_instrs"] = f(s.SpillInstrs)
	layer["sim.l1_hit_ratio"] = ratio(float64(s.L1Hits), float64(s.L1Hits+s.L1Misses))
	layer["sim.l2_hit_ratio"] = ratio(float64(s.L2Hits), float64(s.L2Hits+s.L2Misses))

	k := d.cache
	layer["memo.realize_hits"] = f(k.Realize.Hits)
	layer["memo.realize_misses"] = f(k.Realize.Misses)
	layer["memo.realize_hit_ratio"] = ratio(float64(k.Realize.Hits), float64(k.Realize.Hits+k.Realize.Misses))
	layer["memo.run_hits"] = f(k.Run.Hits)
	layer["memo.run_misses"] = f(k.Run.Misses)
	layer["memo.run_hit_ratio"] = ratio(float64(k.Run.Hits), float64(k.Run.Hits+k.Run.Misses))
	layer["core.ladder_reuse"] = f(k.Ladder.Reuse)
	layer["core.ladder_recolor"] = f(k.Ladder.Recolor)
	layer["core.ladder_pruned"] = f(k.Ladder.Pruned)

	layer["tv.checked"] = f(d.tvChecked)
	layer["tv.rejected"] = f(d.tvRejected)
	layer["tv.abstained"] = f(d.tvAbstained)
	layer["gc.alloc_mib"] = d.allocMiB
}
