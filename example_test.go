package tbpoint_test

import (
	"fmt"

	"tbpoint"
	"tbpoint/ir"
)

// Example runs the full TBPoint pipeline on a built-in benchmark and
// reports the sampling outcome against the full simulation.
func Example() {
	app := tbpoint.MustBenchmark("cfd", 0.02) // 2% of Table VI scale
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 4
	sim := tbpoint.MustNewSimulator(cfg)

	prof := tbpoint.Profile(app) // one-time, hardware independent
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		panic(err)
	}
	full := tbpoint.FullSimulation(sim, app, 0)

	fmt.Printf("launches: %d, clusters: %d\n", len(app.Launches), res.Inter.NumClusters)
	fmt.Printf("error below 5%%: %v\n", res.Estimate.Error(full) < 0.05)
	fmt.Printf("sample below 10%%: %v\n", res.Estimate.SampleSize < 0.10)
	// Output:
	// launches: 100, clusters: 1
	// error below 5%: true
	// sample below 10%: true
}

// ExamplePredictIPC evaluates the §IV-A Markov model in closed form: more
// warps hide more stall latency.
func ExamplePredictIPC() {
	for _, n := range []int{1, 4, 16} {
		ms := make([]float64, n)
		for i := range ms {
			ms[i] = 200 // mean stall cycles
		}
		fmt.Printf("N=%-2d IPC=%.3f\n", n, tbpoint.PredictIPC(0.1, ms))
	}
	// Output:
	// N=1  IPC=0.048
	// N=4  IPC=0.177
	// N=16 IPC=0.542
}

// ExampleIdentifyRegions builds a custom two-phase kernel with the public
// ir API and shows homogeneous region identification finding the phases.
func ExampleIdentifyRegions() {
	prog := ir.NewBuilder("twophase").
		Block(ir.IALU()).
		LoopBlocks(0, ir.Load(2, 1, 128), ir.FALU(), ir.Branch()). // memory phase knob
		LoopBlocks(1, ir.FALU(), ir.FALU(), ir.Branch()).          // compute phase knob
		EndBlock().
		Build()
	k := &tbpoint.Kernel{Name: "twophase", Program: prog, ThreadsPerBlock: 64}

	params := make([]tbpoint.TBParams, 120)
	for tb := range params {
		if tb < 60 {
			params[tb] = tbpoint.TBParams{Trips: []int{10, 1}, ActiveFrac: 1, Seed: uint64(tb + 1)}
		} else {
			params[tb] = tbpoint.TBParams{Trips: []int{1, 12}, ActiveFrac: 1, Seed: uint64(tb + 1)}
		}
	}
	l := tbpoint.NewLaunch(k, 0, params)
	app := &tbpoint.App{Name: "twophase", Launches: []*tbpoint.Launch{l}}

	prof := tbpoint.Profile(app)
	rt := tbpoint.IdentifyRegions(prof.Profiles[0], 12, 0.2, 0.3)
	fmt.Printf("regions: %d\n", rt.NumRegions)
	for _, run := range rt.Regions() {
		fmt.Printf("blocks [%3d,%3d) -> region %d\n", run.Start, run.End, run.ID)
	}
	// Output:
	// regions: 2
	// blocks [  0, 60) -> region 0
	// blocks [ 60,120) -> region 1
}

// ExampleIPCVariation reproduces one Fig. 5 configuration: Lemma 4.1's
// bound holds.
func ExampleIPCVariation() {
	mc := tbpoint.IPCVariation(0.05, 400, 4, 10000, 42)
	fmt.Printf("within 10%% of mean: %v\n", mc.Within10 >= 0.95)
	// Output:
	// within 10% of mean: true
}
