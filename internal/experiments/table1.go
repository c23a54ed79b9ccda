package experiments

import (
	"fmt"
	"io"
	"time"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/workloads"
)

// Table1Kernel is one row of the paper's Table I: a long-running GPGPU
// kernel with its published NVIDIA Quadro 6000 execution time, plus the
// built-in benchmark model whose instruction mix best matches it (the
// Table I kernels come from Burtscher et al.'s irregular-programs study;
// the proxy decides each row's simulated throughput, since memory-bound
// kernels simulate slower per instruction than compute-bound ones).
type Table1Kernel struct {
	Name  string
	GPUms float64
	// Proxy is the built-in benchmark used to measure this kernel's
	// simulation throughput.
	Proxy string
}

// Table1Kernels are the Table I rows (GPU times from Burtscher et al.,
// reproduced in the paper).
func Table1Kernels() []Table1Kernel {
	return []Table1Kernel{
		{"NB", 28557, "black"},  // Barnes-Hut n-body: compute heavy
		{"SP", 18779, "bfs"},    // survey propagation: irregular graph
		{"SSSP", 7067, "sssp"},  // single-source shortest paths
		{"PTA", 4485, "bfs"},    // points-to analysis: irregular graph
		{"TSP", 4456, "kmeans"}, // TSP local search: compute + streaming
		{"DMR", 3391, "mst"},    // Delaunay mesh refinement: irregular
		{"MM", 881, "conv"},     // matrix multiply: tiled, regular
	}
}

// QuadroThreadInstsPerSec is the assumed sustained thread-instruction
// throughput of the paper's NVIDIA Quadro 6000 (448 CUDA cores at 1.15GHz
// executing ~1 instruction per core-cycle peak; we assume ~40% sustained
// utilisation, in line with the paper's "GPGPU applications can easily
// have 1GFLOPS or even higher" framing and its ~80,000x observed
// slowdown).
const QuadroThreadInstsPerSec = 2.0e11

// Table1Result projects simulation times from the measured simulator
// throughput.
type Table1Result struct {
	// SimWarpInstsPerSec is the measured simulator speed on the
	// calibration workload (cfd).
	SimWarpInstsPerSec float64
	// Slowdown is GPU throughput / simulator throughput (thread insts) on
	// the calibration workload.
	Slowdown float64
	Rows     []Table1Row
}

// Table1Row is one projected row.
type Table1Row struct {
	Kernel Table1Kernel
	// WarpInstsPerSec is the measured throughput on the row's proxy
	// benchmark (0 in bundles recorded before rows were measured one by one).
	WarpInstsPerSec float64
	SimTime         time.Duration
}

// measureThroughput times the simulator on the first launches of a benchmark
// and returns warp instructions simulated per second.
func measureThroughput(bench string, scale float64, mc *metrics.Collector) float64 {
	spec, err := workloads.ByName(bench)
	if err != nil {
		panic(err) // callers pass registry names only
	}
	app := spec.Build(workloads.Config{Scale: scale})
	sim := gpusim.MustNew(gpusim.DefaultConfig())
	var insts int64
	start := time.Now()
	for _, l := range app.Launches[:min(4, len(app.Launches))] {
		insts += sim.RunLaunch(l, gpusim.RunOptions{Metrics: mc}).SimulatedWarpInsts
	}
	el := time.Since(start).Seconds()
	if el <= 0 {
		el = 1e-9
	}
	mc.AddPhase("experiments.table1_measure", time.Duration(el*float64(time.Second)))
	return float64(insts) / el
}

// RunTable1PerKernelMetrics projects Table I by measuring the simulation
// throughput of each row's proxy benchmark, so memory-bound kernels project
// proportionally longer simulations than compute-bound ones. Each
// measurement run's simulator counters are collected into mc (nil mc
// disables collection); the measurement loops are sequential, so one shared
// collector is safe.
func RunTable1PerKernelMetrics(scale float64, mc *metrics.Collector) *Table1Result {
	cal := measureThroughput("cfd", scale, mc)
	res := &Table1Result{
		SimWarpInstsPerSec: cal,
		Slowdown:           QuadroThreadInstsPerSec / (cal * 32),
	}
	for _, k := range Table1Kernels() {
		thr := measureThroughput(k.Proxy, scale, mc)
		slow := QuadroThreadInstsPerSec / (thr * 32)
		res.Rows = append(res.Rows, Table1Row{
			Kernel:          k,
			WarpInstsPerSec: thr,
			SimTime:         time.Duration(k.GPUms / 1000 * slow * float64(time.Second)),
		})
	}
	return res
}

// humanDuration formats like the paper's Table I ("3.78 weeks", "19.58
// hours").
func humanDuration(d time.Duration) string {
	h := d.Hours()
	switch {
	case h >= 24*7:
		return fmt.Sprintf("%.2f weeks", h/(24*7))
	case h >= 24:
		return fmt.Sprintf("%.2f days", h/24)
	case h >= 1:
		return fmt.Sprintf("%.2f hours", h)
	default:
		return fmt.Sprintf("%.2f minutes", d.Minutes())
	}
}

// PrintTable1 renders the projection.
func PrintTable1(w io.Writer, r *Table1Result) {
	fmt.Fprintln(w, "Table I: GPU execution time vs projected cycle-level simulation time")
	fmt.Fprintf(w, "simulator throughput: %.2e warp insts/s (%.2e thread insts/s); slowdown vs GPU: %.0fx\n",
		r.SimWarpInstsPerSec, r.SimWarpInstsPerSec*32, r.Slowdown)
	t := &table{header: []string{"kernel", "GPU (msec)", "sim insts/s", "Simulation"}}
	for _, row := range r.Rows {
		thr := "-"
		if row.WarpInstsPerSec > 0 {
			thr = fmt.Sprintf("%.2e", row.WarpInstsPerSec)
		}
		t.addRow(row.Kernel.Name, fmt.Sprintf("%.0f", row.Kernel.GPUms), thr, humanDuration(row.SimTime))
	}
	t.write(w)
	fmt.Fprintln(w, "paper: NB 3.78 weeks, SP 2.48 weeks, SSSP 6.54 days, PTA 4.15 days,")
	fmt.Fprintln(w, "       TSP 4.13 days, DMR 3.14 days, MM 19.58 hours (~80,000x slowdown)")
	fmt.Fprintln(w)
}
