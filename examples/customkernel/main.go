// Customkernel: define your own GPGPU application with the public ir API
// and run the full TBPoint pipeline on it — the path a user takes to study
// a kernel that is not in the built-in Table VI suite.
//
// The example models a two-phase "particle push + bin" step: an initial
// run of launches does coalesced, compute-heavy pushes; a second run does
// scattered binning with irregular writes. Within each binning launch the
// particle density decays across thread blocks, giving TBPoint distinct
// homogeneous regions to find.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"tbpoint"
	"tbpoint/ir"
)

func pushKernel() *tbpoint.Kernel {
	prog := ir.NewBuilder("push").
		Block(ir.IALU(), ir.Load(1, 1, 128)).
		LoopBlocks(0, ir.Cat(
			ir.Load(1, 1, 128),
			ir.Rep(ir.FALU(), 6),
			ir.SFU(),
			ir.Branch(),
		)...).
		EndBlock(ir.Store(1, 2, 128)).
		Build()
	return &tbpoint.Kernel{Name: "push", Program: prog,
		ThreadsPerBlock: 256, RegsPerThread: 28}
}

func binKernel() *tbpoint.Kernel {
	prog := ir.NewBuilder("bin").
		Block(ir.IALU()).
		LoopBlocks(0, ir.Cat(
			ir.Load(1, 1, 128),
			ir.IALU(), ir.IALU(),
			ir.Store(8, 3, 0).AsIrregular(), // scattered bin increments
			ir.Branch(),
		)...).
		EndBlock().
		Build()
	return &tbpoint.Kernel{Name: "bin", Program: prog,
		ThreadsPerBlock: 256, RegsPerThread: 20}
}

func buildApp(steps, blocksPerLaunch int) *tbpoint.App {
	push, bin := pushKernel(), binKernel()
	app := &tbpoint.App{Name: "particles"}
	seed := uint64(1)
	for s := 0; s < steps; s++ {
		for _, k := range []*tbpoint.Kernel{push, bin} {
			params := make([]tbpoint.TBParams, blocksPerLaunch)
			for tb := range params {
				seed += 0x9e3779b97f4a7c15
				p := tbpoint.TBParams{Trips: []int{12}, ActiveFrac: 1, Seed: seed | 1}
				if k == bin {
					// Particle density decays across the grid: two long
					// homogeneous regions per binning launch.
					if tb >= blocksPerLaunch/2 {
						p.Trips = []int{5}
						p.ActiveFrac = 0.7
					}
				}
				params[tb] = p
			}
			app.Launches = append(app.Launches, tbpoint.NewLaunch(k, len(app.Launches), params))
		}
	}
	return app
}

func main() {
	app := buildApp(6, 600)
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	fmt.Printf("%s: %d launches (push/bin alternating), %d blocks, %d warp insts\n",
		app.Name, len(app.Launches), app.TotalBlocks(), app.TotalWarpInsts())

	prof := tbpoint.Profile(app)
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inter-launch clusters: %d (expect 2: push-like and bin-like)\n",
		res.Inter.NumClusters)
	for _, rep := range res.Inter.RepLaunches() {
		fmt.Printf("  rep launch %2d (%s): %d region IDs\n",
			rep, app.Launches[rep].Kernel.Name, res.Tables[rep].NumRegions)
	}

	full := tbpoint.FullSimulation(sim, app, 0)
	fmt.Printf("full IPC %.3f, TBPoint predicted %.3f — error %.2f%% at %.2f%% sample size\n",
		full.IPC(), res.Estimate.PredictedIPC,
		res.Estimate.Error(full)*100, res.Estimate.SampleSize*100)
}
