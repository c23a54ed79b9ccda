package main

import (
	"testing"

	"tbpoint"
)

func TestSortedRepsTruncates(t *testing.T) {
	app := tbpoint.MustBenchmark("sssp", 0.1)
	prof := tbpoint.Profile(app)
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 2
	sim := tbpoint.MustNewSimulator(cfg)
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reps := sortedReps(res)
	if len(reps) > 16 {
		t.Errorf("sortedReps returned %d entries, cap is 16", len(reps))
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] <= reps[i-1] {
			t.Error("reps not sorted")
		}
	}
}

func TestPrintRegionsSmoke(t *testing.T) {
	app := tbpoint.MustBenchmark("hotspot", 0.2)
	prof := tbpoint.Profile(app)
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 2
	sim := tbpoint.MustNewSimulator(cfg)
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// printRegions writes to stdout; just ensure it does not panic.
	printRegions(res)
}
