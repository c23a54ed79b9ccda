package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

//go:embed golden/*.json
var goldenFS embed.FS

// goldenSeeds have checked-in statistics; seed 2 is held out: a claim made
// while looking at seed 1 must also hold there.
var goldenSeeds = []uint64{1, 2}

func goldenPath(seed uint64) string { return fmt.Sprintf("golden/seed%d.json", seed) }

// loadGolden returns the recorded statistics of one seed, by workload.
func loadGolden(seed uint64) (map[string]map[string]float64, bool) {
	data, err := goldenFS.ReadFile(goldenPath(seed))
	if err != nil {
		return nil, false
	}
	var g map[string]map[string]float64
	if json.Unmarshal(data, &g) != nil {
		return nil, false
	}
	return g, true
}

// tracedFactPrefix marks statistics only a traced run produces.
const tracedFactPrefix = "traced."

// checkGolden compares a run's exact-repeat statistics with the golden file
// of its seed, when there is one. An untraced run is held to the untraced
// part of the golden only.
func checkGolden(workload string, seed uint64, facts map[string]float64, traced bool, c *checker) {
	isGolden := false
	for _, s := range goldenSeeds {
		isGolden = isGolden || s == seed
	}
	if !isGolden {
		return
	}
	g, ok := loadGolden(seed)
	if !ok || g[workload] == nil {
		c.fail("golden", "no golden statistics for %s at seed %d (regenerate with -update-golden)", workload, seed)
		return
	}
	want := map[string]float64{}
	for k, v := range g[workload] {
		if traced || !strings.HasPrefix(k, tracedFactPrefix) {
			want[k] = v
		}
	}
	if diff := diffFacts(want, facts); diff != "" {
		c.fail("golden", "statistics differ from %s: %s", goldenPath(seed), diff)
	}
}

// writeGolden replaces one seed's golden file (relative to the package
// directory, where `go run -C bench .` runs).
func writeGolden(seed uint64, byWorkload map[string]map[string]float64) error {
	data, err := json.MarshalIndent(byWorkload, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(seed), append(data, '\n'), 0o644)
}
