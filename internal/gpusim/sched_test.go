package gpusim

import (
	"fmt"
	"reflect"
	"testing"

	"tbpoint/internal/kernel"
)

// runScan simulates l as RunLaunch does, but with the scheduler's reference
// loop: every SM is visited every cycle, in ascending id, with no time jumps.
func (s *Simulator) runScan(l *kernel.Launch, opts RunOptions) *LaunchResult {
	rs := s.getArena().reset(s, l, opts)
	rs.occ = s.cfg.Limits.BlocksPerSM(l.Kernel)
	rs.prepareSlots(s.cfg.NumSMs * rs.occ)
	for round := 0; round < rs.occ; round++ {
		for i := range rs.sms {
			if sm := &rs.sms[i]; sm.resident < rs.occ {
				rs.dispatchOne(sm)
			}
		}
	}
	for rs.liveTBs > 0 {
		for i := range rs.sms {
			sm := &rs.sms[i]
			sm.drainWakes(rs.cycle)
			if ref, ok := sm.popReady(); ok {
				rs.issue(sm, ref)
			}
		}
		rs.cycle++
	}
	rs.finishRun()
	return rs.res
}

// TestEventLoopMatchesCycleScan holds the next-event scheduler to the loop
// it stands for: visiting only the SMs due at each cycle, and jumping over
// cycles with none, must give the LaunchResult of visiting every SM every
// cycle — units, BBVs and the dispatch/retire log included. The fixed
// launches have more blocks than 64 SMs, so at 70 SMs ids above 63 hold
// work.
func TestEventLoopMatchesCycleScan(t *testing.T) {
	type tc struct {
		name string
		l    *kernel.Launch
	}
	cases := []tc{
		{"memory", makeLaunch(memoryKernel(), 150, 4)},
		{"compute", makeLaunch(computeKernel(), 150, 4)},
		{"barrier", makeLaunch(barrierKernel(), 150, 0)},
	}
	for seed := int64(1); seed <= 20; seed++ {
		cases = append(cases, tc{fmt.Sprintf("random%d", seed),
			randomLaunch(seed, uint8(seed*5), uint8(seed))})
	}
	for _, n := range []int{1, 3, 14, 28, 70} {
		cfg := DefaultConfig()
		cfg.NumSMs = n
		sim := MustNew(cfg)
		for _, c := range cases {
			opts := RunOptions{FixedUnitInsts: 200}
			got := sim.RunLaunch(c.l, opts)
			want := sim.runScan(c.l, opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d SMs, %s: event loop (%d cycles, %d insts) differs from cycle scan (%d cycles, %d insts)",
					n, c.name, got.Cycles, got.SimulatedWarpInsts, want.Cycles, want.SimulatedWarpInsts)
			}
		}
	}
}
