package workloads

import (
	"testing"

	"tbpoint/internal/core"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	specs := All()
	if len(specs) != 12 {
		t.Fatalf("registry has %d benchmarks, want 12", len(specs))
	}
	want := []string{"bfs", "sssp", "mst", "mri", "spmv", "lbm",
		"cfd", "kmeans", "hotspot", "stream", "black", "conv"}
	for i, name := range want {
		if specs[i].Name != name {
			t.Errorf("specs[%d] = %s, want %s (table order)", i, specs[i].Name, name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mst")
	if err != nil || s.Name != "mst" {
		t.Errorf("ByName(mst) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestNames(t *testing.T) {
	if n := Names(); len(n) != 12 || n[0] != "bfs" {
		t.Errorf("Names() = %v", n)
	}
}

func TestTableVICountsAtScale1(t *testing.T) {
	// Launch counts must match Table VI exactly; total blocks within a
	// small tolerance of the table (rounding in weighted splits).
	for _, s := range All() {
		app := s.Build(Config{Scale: 1})
		if got := len(app.Launches); got != s.Launches {
			t.Errorf("%s: %d launches, want %d", s.Name, got, s.Launches)
		}
		got := app.TotalBlocks()
		lo, hi := int(float64(s.TotalTBs)*0.95), int(float64(s.TotalTBs)*1.05)
		if got < lo || got > hi {
			t.Errorf("%s: %d blocks, want within 5%% of %d", s.Name, got, s.TotalTBs)
		}
	}
}

func TestScaleShrinks(t *testing.T) {
	for _, s := range All() {
		full := s.Build(Config{Scale: 1}).TotalBlocks()
		small := s.Build(Config{Scale: 0.05}).TotalBlocks()
		if small >= full {
			t.Errorf("%s: scale 0.05 gave %d blocks >= %d", s.Name, small, full)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, name := range []string{"bfs", "mst", "conv"} {
		s, _ := ByName(name)
		a := s.Build(Config{Scale: 0.05})
		b := s.Build(Config{Scale: 0.05})
		if a.TotalBlocks() != b.TotalBlocks() {
			t.Fatalf("%s: nondeterministic block count", name)
		}
		for li := range a.Launches {
			for tb := 0; tb < a.Launches[li].NumBlocks(); tb++ {
				pa, pb := a.Launches[li].Params(tb), b.Launches[li].Params(tb)
				if pa.Seed != pb.Seed || pa.ActiveFrac != pb.ActiveFrac || pa.Trips[0] != pb.Trips[0] {
					t.Fatalf("%s launch %d tb %d: params differ", name, li, tb)
				}
			}
		}
	}
}

func TestKernelsValid(t *testing.T) {
	for _, s := range All() {
		app := s.Build(Config{Scale: 0.02})
		for li, l := range app.Launches {
			if err := l.Kernel.Validate(); err != nil {
				t.Errorf("%s launch %d: %v", s.Name, li, err)
			}
			if l.NumBlocks() == 0 {
				t.Errorf("%s launch %d: empty", s.Name, li)
			}
		}
	}
}

// TB-size regularity must match the declared type: regular kernels have low
// within-launch size CoV (or a clean pattern), irregular kernels scatter.
func TestTypeMatchesSizeVariation(t *testing.T) {
	for _, s := range All() {
		// Paper scale: mst's irregularity comes from rare outlier blocks
		// that small scales may not include.
		app := s.Build(Config{Scale: 1})
		// Use the largest launch.
		var biggest *kernel.Launch
		for _, l := range app.Launches {
			if biggest == nil || l.NumBlocks() > biggest.NumBlocks() {
				biggest = l
			}
		}
		cov := funcsim.ProfileLaunch(biggest).TBSizeCoV()
		switch s.Type {
		case Regular:
			if cov > 0.15 {
				t.Errorf("%s (regular): TB size CoV %.3f too high", s.Name, cov)
			}
		case Irregular:
			if cov < 0.15 {
				t.Errorf("%s (irregular): TB size CoV %.3f too low", s.Name, cov)
			}
		}
	}
}

func TestMstHasOutliers(t *testing.T) {
	s, _ := ByName("mst")
	app := s.Build(Config{Scale: 1})
	sizes := funcsim.ProfileLaunch(app.Launches[0]).TBSizes()
	mean := stats.Mean(sizes)
	outliers := 0
	for _, v := range sizes {
		if v > 5*mean {
			outliers++
		}
	}
	if outliers == 0 {
		t.Error("mst should contain outlier thread blocks")
	}
	if frac := float64(outliers) / float64(len(sizes)); frac > 0.25 {
		t.Errorf("mst outlier fraction %.2f implausibly high", frac)
	}
}

func TestSpmvLaunchesIdentical(t *testing.T) {
	s, _ := ByName("spmv")
	app := s.Build(Config{Scale: 0.05})
	p0 := funcsim.ProfileLaunch(app.Launches[0])
	p1 := funcsim.ProfileLaunch(app.Launches[1])
	if p0.TotalWarpInsts() != p1.TotalWarpInsts() {
		t.Error("spmv launches should be identical across iterations")
	}
	for tb := 0; tb < p0.NumBlocks(); tb++ {
		if p0.Block(tb) != p1.Block(tb) {
			t.Fatalf("spmv tb %d differs between launches", tb)
		}
	}
}

func TestBfsLaunchSizesVary(t *testing.T) {
	s, _ := ByName("bfs")
	app := s.Build(Config{Scale: 1})
	sizes := make([]float64, len(app.Launches))
	for i, l := range app.Launches {
		sizes[i] = float64(l.NumBlocks())
	}
	if stats.CoV(sizes) < 0.3 {
		t.Errorf("bfs launch sizes CoV %.3f too low for a frontier kernel", stats.CoV(sizes))
	}
}

func TestKmeansTwoPhases(t *testing.T) {
	s, _ := ByName("kmeans")
	app := s.Build(Config{Scale: 0.02})
	early := funcsim.ProfileLaunch(app.Launches[0]).TotalWarpInsts()
	late := funcsim.ProfileLaunch(app.Launches[29]).TotalWarpInsts()
	if early <= late {
		t.Errorf("kmeans early launch (%d insts) should outweigh late (%d)", early, late)
	}
}

func TestConvAlternatesKernels(t *testing.T) {
	s, _ := ByName("conv")
	app := s.Build(Config{Scale: 0.01})
	if app.Launches[0].Kernel.Name == app.Launches[1].Kernel.Name {
		t.Error("conv should alternate row/column kernels")
	}
	if app.Launches[0].Kernel.Name != app.Launches[2].Kernel.Name {
		t.Error("conv even launches should share the row kernel")
	}
}

func TestHotspotBoundaryPattern(t *testing.T) {
	s, _ := ByName("hotspot")
	app := s.Build(Config{Scale: 1})
	l := app.Launches[0]
	sawBoundary, sawInterior := false, false
	for _, sh := range l.Shapes {
		switch sh.ActiveFrac {
		case 0.75:
			sawBoundary = true
		case 1.0:
			sawInterior = true
		}
	}
	if !sawBoundary || !sawInterior {
		t.Error("hotspot should mix boundary and interior blocks")
	}
}

func TestTypeString(t *testing.T) {
	if Regular.String() != "II" || Irregular.String() != "I" {
		t.Error("Type.String mismatch with Table VI labels")
	}
}

func TestSeedChangesIrregularWorkload(t *testing.T) {
	s, _ := ByName("bfs")
	a := s.Build(Config{Scale: 0.05, Seed: 1})
	b := s.Build(Config{Scale: 0.05, Seed: 2})
	same := true
	for li := range a.Launches {
		for tb := 0; tb < a.Launches[li].NumBlocks(); tb++ {
			if a.Launches[li].Shape(tb).Trips[0] != b.Launches[li].Shape(tb).Trips[0] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should perturb bfs trip counts")
	}
}

// Region-structure signatures: homogeneous region identification at paper
// scale must find the structure each model was designed to have.
func TestRegionStructurePerBenchmark(t *testing.T) {
	cases := []struct {
		bench             string
		minIDs, maxIDs    int // distinct region IDs on the largest launch
		occupancyOverride int
	}{
		{"lbm", 1, 1, 84},     // uniform: single region
		{"cfd", 1, 1, 84},     // uniform: single region
		{"black", 1, 1, 112},  // uniform: single region
		{"hotspot", 1, 2, 56}, // boundary pattern may or may not split
		{"bfs", 2, 5, 56},     // three af phases (boundary epochs may split)
		{"mri", 2, 5, 70},     // three density plateaus
		{"spmv", 2, 7, 112},   // five bands, boundary epochs may be VF outliers
	}
	for _, c := range cases {
		spec, err := ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		app := spec.Build(Config{Scale: 1})
		largest := app.Launches[0]
		for _, l := range app.Launches {
			if l.NumBlocks() > largest.NumBlocks() {
				largest = l
			}
		}
		lp := funcsim.ProfileLaunch(largest)
		rt := core.IdentifyRegions(lp, c.occupancyOverride, 0.2, 0.3)
		if rt.NumRegions < c.minIDs || rt.NumRegions > c.maxIDs {
			t.Errorf("%s: %d region IDs, want [%d,%d]",
				c.bench, rt.NumRegions, c.minIDs, c.maxIDs)
		}
	}
}

// spmv's symmetric bands (0 and 4, 1 and 3) must share region IDs — the
// cluster-ID-as-region-ID property that amortises warming across band
// repeats.
func TestSpmvBandsShareClusters(t *testing.T) {
	spec, _ := ByName("spmv")
	app := spec.Build(Config{Scale: 1})
	l := app.Launches[0]
	lp := funcsim.ProfileLaunch(l)
	rt := core.IdentifyRegions(lp, 112, 0.2, 0.3)
	n := l.NumBlocks()
	// The symmetric outer bands (0 and 4) produce pure epochs that must
	// share a cluster, hence a region ID. (The inner bands are narrower
	// than they are offset from epoch boundaries, so their epochs mix
	// neighbouring bands and need not align.)
	b0 := rt.RegionOf[n/10]   // middle of band 0
	b4 := rt.RegionOf[n-n/10] // middle of band 4
	if b0 != b4 {
		t.Errorf("bands 0 and 4 have region IDs %d and %d, want equal", b0, b4)
	}
	b2 := rt.RegionOf[n/2]
	if b2 == b0 {
		t.Errorf("band 2 (densest) should not share band 0's region ID")
	}
}
