package gpusim

import "tbpoint/internal/kernel"

// MSHRFootprints runs launches in order on one arena, recycled between
// them as RunLaunch recycles arenas, and returns after each launch the
// largest per-SM MSHR table footprint in bytes (index plus entries).
func MSHRFootprints(s *Simulator, opts RunOptions, launches []*kernel.Launch) []int {
	ar := s.getArena()
	var out []int
	for _, l := range launches {
		ar.runLaunch(s, l, opts)
		most := 0
		for i := range ar.rs.mem.mshrs {
			most = max(most, ar.rs.mem.mshrs[i].footprint())
		}
		out = append(out, most)
	}
	return out
}
