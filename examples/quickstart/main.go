// Quickstart: run TBPoint end to end on one synthetic benchmark and
// compare the sampled prediction against the full simulation.
//
//	go run ./examples/quickstart [-bench cfd] [-scale 0.2]
package main

import (
	"flag"
	"fmt"
	"log"

	"tbpoint"
)

func main() {
	bench := flag.String("bench", "cfd", "benchmark name (see tbpoint.Benchmarks)")
	scale := flag.Float64("scale", 0.2, "workload scale (1.0 = Table VI size)")
	flag.Parse()

	// 1. Build a synthetic GPGPU application (a sequence of kernel
	//    launches) and the Table V Fermi-like simulator.
	app, err := tbpoint.Benchmark(*bench, *scale)
	if err != nil {
		log.Fatalf("quickstart: %v (available: %v)", err, tbpoint.Benchmarks())
	}
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	fmt.Printf("%s: %d launches, %d thread blocks, %d warp instructions\n",
		app.Name, len(app.Launches), app.TotalBlocks(), app.TotalWarpInsts())

	// 2. One-time functional profiling (hardware independent — the
	//    GPUOcelot step of the paper).
	prof := tbpoint.Profile(app)

	// 3. TBPoint: inter-launch clustering, homogeneous region
	//    identification, sampled simulation, prediction.
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
	est := res.Estimate
	fmt.Printf("inter-launch clusters: %d (of %d launches)\n",
		res.Inter.NumClusters, len(app.Launches))
	for _, rep := range res.Inter.RepLaunches() {
		rt := res.Tables[rep]
		fmt.Printf("  representative launch %d: %d homogeneous region IDs over %d blocks\n",
			rep, rt.NumRegions, len(rt.RegionOf))
	}
	fmt.Printf("TBPoint: predicted IPC %.3f, sample size %.2f%%\n",
		est.PredictedIPC, est.SampleSize*100)

	// 4. Reference: the full (unsampled) simulation.
	full := tbpoint.FullSimulation(sim, app, 0)
	fmt.Printf("Full:    measured  IPC %.3f (%d cycles)\n", full.IPC(), full.TotalCycles())
	fmt.Printf("sampling error: %.2f%%  — simulated only %.2f%% of the warp instructions\n",
		est.Error(full)*100, est.SampleSize*100)
}
