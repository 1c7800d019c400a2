//go:build race

package main

// raceEnabled is true when perfbench was built with -race, whose
// instrumentation would dominate every timing it reports.
const raceEnabled = true
