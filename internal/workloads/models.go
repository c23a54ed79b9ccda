package workloads

import (
	"math"

	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
)

// paramGen produces the parameters of thread block tb of one launch. A
// launch only reads Trips, so blocks with equal trip counts may share one
// slice (the regular benchmarks do: one allocation per launch, not per
// block).
type paramGen func(tb int, rng *stats.RNG) kernel.TBParams

func buildLaunch(k *kernel.Kernel, idx, n int, rng *stats.RNG, gen paramGen) *kernel.Launch {
	b := kernel.NewLaunchBuilder(k, idx, n)
	for tb := 0; tb < n; tb++ {
		p := gen(tb, rng)
		if p.Seed == 0 {
			p.Seed = rng.Uint64() | 1
		}
		b.Add(p)
	}
	return b.Launch()
}

// splitByWeights divides total blocks across launches proportionally to
// weights, guaranteeing each launch at least minBlocks.
func splitByWeights(total int, weights []float64, minBlocks int) []int {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	out := make([]int, len(weights))
	for i, w := range weights {
		out[i] = int(float64(total) * w / wsum)
		if out[i] < minBlocks {
			out[i] = minBlocks
		}
	}
	return out
}

// noisyTrips returns base trips with +/-frac relative uniform noise,
// floored at 1.
func noisyTrips(base int, frac float64, rng *stats.RNG) int {
	t := int(float64(base) * (1 + frac*(2*rng.Float64()-1)))
	if t < 1 {
		t = 1
	}
	return t
}

const launchFloor = 4

// clampAF bounds an active-lane fraction to (0, 1].
func clampAF(af float64) float64 {
	if af < 0.05 {
		return 0.05
	}
	if af > 1 {
		return 1
	}
	return af
}

// sin2pi is sin(2*pi*x) without importing math at every call site's
// closure.
func sin2pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }

// --- Irregular (Type I) benchmarks ---------------------------------------

var bfsSpec = register(&Spec{
	Name: "bfs", Suite: "lonestar", Type: Irregular,
	Launches: 13, TotalTBs: 10619,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "bfs", Program: graphProgram("bfs", 12),
			ThreadsPerBlock: 128, RegsPerThread: 60}
		// Frontier expansion then contraction across BFS levels.
		weights := []float64{1, 2, 4, 8, 16, 24, 18, 12, 8, 6, 4, 2, 1}
		sizes := splitByWeights(scaledTotal(s, cfg), weights, launchFloor)
		app := &kernel.App{}
		for li, n := range sizes {
			rng := s.rng(cfg, li)
			base := 6 + (li*3)%14 // per-level mean degree
			nf := float64(n)
			app.Launches = append(app.Launches, buildLaunch(k, li, n, rng,
				func(tb int, r *stats.RNG) kernel.TBParams {
					trips := noisyTrips(base, 0.1, r)
					// Frontier coherence decays across the level in a few
					// long phases (dense core first, fringe last), creating
					// a handful of long homogeneous regions per launch.
					seg := int(3 * float64(tb) / nf)
					if seg > 2 {
						seg = 2
					}
					af := []float64{0.9, 0.7, 0.5}[seg] + 0.02*(2*r.Float64()-1)
					return kernel.TBParams{
						Trips:      []int{trips},
						ActiveFrac: clampAF(af),
					}
				}))
		}
		return app
	},
})

var ssspSpec = register(&Spec{
	Name: "sssp", Suite: "lonestar", Type: Irregular,
	Launches: 49, TotalTBs: 12691,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "sssp", Program: graphProgram("sssp", 16),
			ThreadsPerBlock: 128, RegsPerThread: 63}
		weights := make([]float64, 49)
		for i := range weights {
			// The worklist grows then converges; late rounds settle to a
			// constant size (so the tail launches cluster together).
			weights[i] = math.Max(1, 7*math.Exp(-float64(i)/9))
		}
		sizes := splitByWeights(scaledTotal(s, cfg), weights, launchFloor)
		app := &kernel.App{}
		for li, n := range sizes {
			rng := s.rng(cfg, li)
			// Early rounds relax varying amounts of work; converged tail
			// rounds settle to a constant per-block cost (so they cluster).
			base := 5 + (li*5)%18
			if li >= 20 {
				base = 8
			}
			nf := float64(n)
			app.Launches = append(app.Launches, buildLaunch(k, li, n, rng,
				func(tb int, r *stats.RNG) kernel.TBParams {
					trips := noisyTrips(base, 0.12, r)
					// The worklist alternates between a coherent stretch of
					// relaxations and a divergent fringe; the phase mix
					// varies by launch.
					af := 0.85
					if li >= 20 {
						af = 0.7 // converged tail rounds are more divergent
					}
					if float64(tb) > 0.6*nf {
						af -= 0.25
					}
					af += 0.02 * (2*r.Float64() - 1)
					return kernel.TBParams{
						Trips:      []int{trips},
						ActiveFrac: clampAF(af),
					}
				}))
		}
		return app
	},
})

var mstSpec = register(&Spec{
	Name: "mst", Suite: "lonestar", Type: Irregular,
	Launches: 24, TotalTBs: 2331,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "mst", Program: graphProgram("mst", 10),
			ThreadsPerBlock: 128, RegsPerThread: 58}
		weights := make([]float64, 24)
		for i := range weights {
			// Component count shrinks geometrically across rounds, so the
			// kernel launch sizes differ strongly (no two launches cluster;
			// intra-launch savings dominate, Fig. 11).
			weights[i] = math.Pow(0.7, float64(i))
		}
		sizes := splitByWeights(scaledTotal(s, cfg), weights, launchFloor)
		app := &kernel.App{}
		for li, n := range sizes {
			rng := s.rng(cfg, li)
			app.Launches = append(app.Launches, buildLaunch(k, li, n, rng,
				func(tb int, r *stats.RNG) kernel.TBParams {
					trips := noisyTrips(9, 0.1, r)
					if r.Float64() < 0.002 {
						// mst's outlier thread blocks: "considerably more
						// instructions than the others" (§V-B). Frequent
						// enough that many epochs trip the variation factor
						// and must be simulated, matching mst's high sample
						// size in Fig. 10.
						trips *= 20
					}
					return kernel.TBParams{
						Trips:      []int{trips},
						ActiveFrac: clampAF(0.75 + 0.05*(2*r.Float64()-1)),
					}
				}))
		}
		return app
	},
})

var mriSpec = register(&Spec{
	Name: "mri", Suite: "parboil", Type: Irregular,
	Launches: 4, TotalTBs: 18158,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "mri", Program: griddingProgram(),
			ThreadsPerBlock: 128, RegsPerThread: 50}
		perLaunch := scaledPerLaunch(s, cfg)
		app := &kernel.App{}
		// Each launch grids a chunk of samples whose density has plateaus:
		// dense k-space centre, sparse edges.
		plateaus := [][]int{{22, 7, 13}, {20, 8, 12}, {24, 6, 14}, {21, 9, 11}}
		for li := 0; li < 4; li++ {
			rng := s.rng(cfg, li)
			pl := plateaus[li]
			app.Launches = append(app.Launches, buildLaunch(k, li, perLaunch, rng,
				func(tb int, r *stats.RNG) kernel.TBParams {
					seg := tb * 3 / perLaunch
					if seg > 2 {
						seg = 2
					}
					segAF := []float64{0.95, 0.75, 0.85}[seg]
					return kernel.TBParams{
						Trips:      []int{noisyTrips(pl[seg], 0.05, r)},
						ActiveFrac: clampAF(segAF + 0.02*(2*r.Float64()-1)),
					}
				}))
		}
		return app
	},
})

var spmvSpec = register(&Spec{
	Name: "spmv", Suite: "parboil", Type: Irregular,
	Launches: 50, TotalTBs: 38250,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "spmv", Program: sparseProgram(),
			ThreadsPerBlock: 128, RegsPerThread: 22}
		perLaunch := scaledPerLaunch(s, cfg)
		app := &kernel.App{}
		for li := 0; li < 50; li++ {
			rng := s.rng(cfg, li)
			app.Launches = append(app.Launches, buildLaunch(k, li, perLaunch, rng,
				func(tb int, r *stats.RNG) kernel.TBParams {
					// The same matrix every iteration: per-block row density
					// depends only on the block ID, so all launches are
					// identical (inter-launch savings dominate) while the
					// matrix's band structure creates distinct homogeneous
					// regions within each launch.
					band := (tb * 5 / perLaunch) % 5
					base := []int{6, 14, 28, 14, 6}[band]
					af := []float64{1, 0.8, 0.55, 0.8, 1}[band]
					h := stats.NewRNG(uint64(tb)*0x9e3779b97f4a7c15 + 11)
					return kernel.TBParams{
						Trips:      []int{noisyTrips(base, 0.06, h)},
						ActiveFrac: af,
						Seed:       h.Uint64() | 1,
					}
				}))
		}
		return app
	},
})

// --- Regular (Type II) benchmarks ----------------------------------------

var lbmSpec = register(&Spec{
	Name: "lbm", Suite: "parboil", Type: Regular,
	Launches: 20, TotalTBs: 108000,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "lbm", Program: streamProgram("lbm"),
			ThreadsPerBlock: 256, RegsPerThread: 32}
		return uniformApp(s, cfg, k, func(li int) int { return 10 })
	},
})

var cfdSpec = register(&Spec{
	Name: "cfd", Suite: "rodinia", Type: Regular,
	Launches: 100, TotalTBs: 50600,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "cfd", Program: fluxProgram(),
			ThreadsPerBlock: 256, RegsPerThread: 28}
		return uniformApp(s, cfg, k, func(li int) int { return 9 })
	},
})

var kmeansSpec = register(&Spec{
	Name: "kmeans", Suite: "rodinia", Type: Regular,
	Launches: 30, TotalTBs: 58080,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "kmeans", Program: distanceProgram(),
			ThreadsPerBlock: 256, RegsPerThread: 24}
		// Two phases of iterations (membership churn early, convergence
		// late) give two inter-launch clusters.
		return uniformApp(s, cfg, k, func(li int) int {
			if li < 10 {
				return 15
			}
			return 9
		})
	},
})

var hotspotSpec = register(&Spec{
	Name: "hotspot", Suite: "rodinia", Type: Regular,
	Launches: 1, TotalTBs: 1849,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "hotspot", Program: stencilProgram(),
			ThreadsPerBlock: 256, RegsPerThread: 26, SharedMemPerBlock: 8 << 10}
		n := scaledPerLaunch(s, cfg)
		side := int(math.Sqrt(float64(n)))
		if side < 2 {
			side = 2
		}
		rng := s.rng(cfg, 0)
		trips := []int{11}
		l := buildLaunch(k, 0, n, rng, func(tb int, r *stats.RNG) kernel.TBParams {
			row, col := tb/side, tb%side
			af := 1.0
			if row == 0 || col == 0 || row == side-1 || col == side-1 {
				af = 0.75 // grid-boundary blocks mask off halo lanes
			}
			return kernel.TBParams{Trips: trips, ActiveFrac: af}
		})
		return &kernel.App{Launches: []*kernel.Launch{l}}
	},
})

var streamSpec = register(&Spec{
	Name: "stream", Suite: "rodinia", Type: Regular,
	Launches: 217, TotalTBs: 2688,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "stream", Program: clusterProgram(),
			ThreadsPerBlock: 256, RegsPerThread: 22}
		// Hundreds of small, homogeneous launches: nearly all savings come
		// from inter-launch sampling (Fig. 11).
		return uniformApp(s, cfg, k, func(li int) int { return 16 })
	},
})

var blackSpec = register(&Spec{
	Name: "black", Suite: "sdk", Type: Regular,
	Launches: 1, TotalTBs: 41760,
	build: func(s *Spec, cfg Config) *kernel.App {
		k := &kernel.Kernel{Name: "black", Program: optionProgram(),
			ThreadsPerBlock: 128, RegsPerThread: 20}
		return uniformApp(s, cfg, k, func(li int) int { return 18 })
	},
})

var convSpec = register(&Spec{
	Name: "conv", Suite: "sdk", Type: Regular,
	Launches: 16, TotalTBs: 202752,
	build: func(s *Spec, cfg Config) *kernel.App {
		rowK := &kernel.Kernel{Name: "convRow", Program: convRowProgram(),
			ThreadsPerBlock: 128, RegsPerThread: 18, SharedMemPerBlock: 6 << 10}
		colK := &kernel.Kernel{Name: "convCol", Program: convColProgram(),
			ThreadsPerBlock: 128, RegsPerThread: 18, SharedMemPerBlock: 6 << 10}
		perLaunch := scaledPerLaunch(s, cfg)
		tilesPerRow := 24 // image tiled 24 blocks wide
		app := &kernel.App{}
		for li := 0; li < 16; li++ {
			k := rowK
			if li%2 == 1 {
				k = colK // alternating row/column passes
			}
			rng := s.rng(cfg, li)
			inner, edge := []int{16}, []int{12}
			app.Launches = append(app.Launches, buildLaunch(k, li, perLaunch, rng,
				func(tb int, r *stats.RNG) kernel.TBParams {
					// Tiles at the image boundary apply fewer taps — the
					// periodic size pattern of a regular kernel (Fig. 8a).
					trips := inner
					if tb%tilesPerRow == 0 || tb%tilesPerRow == tilesPerRow-1 {
						trips = edge
					}
					return kernel.TBParams{Trips: trips, ActiveFrac: 1}
				}))
		}
		return app
	},
})

// uniformApp builds an application with identical blocks in every launch;
// tripsOf may vary trips by launch index to create launch phases.
func uniformApp(s *Spec, cfg Config, k *kernel.Kernel, tripsOf func(li int) int) *kernel.App {
	perLaunch := scaledPerLaunch(s, cfg)
	app := &kernel.App{}
	for li := 0; li < s.Launches; li++ {
		rng := s.rng(cfg, li)
		trips := []int{tripsOf(li)}
		app.Launches = append(app.Launches, buildLaunch(k, li, perLaunch, rng,
			func(tb int, r *stats.RNG) kernel.TBParams {
				return kernel.TBParams{Trips: trips, ActiveFrac: 1}
			}))
	}
	return app
}

// scaledTotal returns the scaled application-wide block budget.
func scaledTotal(s *Spec, cfg Config) int {
	v := int(float64(s.TotalTBs)*cfg.Scale + 0.5)
	min := launchFloor * s.Launches
	if v < min {
		v = min
	}
	return v
}

// scaledPerLaunch returns the scaled per-launch block count for benchmarks
// with equal-sized launches.
func scaledPerLaunch(s *Spec, cfg Config) int {
	v := int(float64(s.TotalTBs)/float64(s.Launches)*cfg.Scale + 0.5)
	if v < launchFloor {
		v = launchFloor
	}
	return v
}
