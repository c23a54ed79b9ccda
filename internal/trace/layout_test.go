package trace_test

import (
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/trace"
)

// TestAddrLayoutDoesNotAlias holds the address layout to the promise of its
// comment: neither the per-block nor the per-warp footprint is a multiple of
// the default configuration's L1 or L2 set span (sets x line size), so the
// stream bases of co-resident blocks and warps land in different sets.
func TestAddrLayoutDoesNotAlias(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	for _, c := range []struct {
		level string
		cache gpusim.CacheConfig
	}{{"L1", cfg.L1}, {"L2", cfg.L2}} {
		span := uint64(c.cache.Sets() * c.cache.LineB)
		for _, f := range []struct {
			name  string
			bytes uint64
		}{{"TBFootprintB", trace.TBFootprintB}, {"WarpFootprintB", trace.WarpFootprintB}} {
			if f.bytes%span == 0 {
				t.Errorf("%s = %d is a multiple of the %s set span %d", f.name, f.bytes, c.level, span)
			}
		}
	}
}
