package gpusim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/trace"
)

// mshrPolicies are the prune schedules the MSHR tests hold equal: the
// simulator's own, a prune after every memory instruction, and none.
var mshrPolicies = []struct {
	name  string
	prune func(m *memSystem, sm int, cycle int64)
}{
	{"schedule", (*memSystem).pruneMSHRs},
	{"every instruction", func(m *memSystem, sm int, cycle int64) { m.mshrs[sm].prune(cycle) }},
	{"never", func(*memSystem, int, int64) {}},
}

// policyMems returns one fresh memSystem per entry of mshrPolicies.
func policyMems(cfg Config) []*memSystem {
	ms := make([]*memSystem, len(mshrPolicies))
	for i := range ms {
		ms[i] = newMemSystem(cfg)
	}
	return ms
}

// memReq is one request of a memory instruction.
type memReq struct {
	addr   uint64
	arrive int64
}

// issueMem sends the requests of one memory instruction of SM sm, issued
// at cycle, to every policy's memSystem and prunes each by its policy. It
// returns the instruction's completion (the latest request's, at least
// cycle+1), or fails the test at the first request whose completion
// differs between policies.
func issueMem(t *testing.T, ms []*memSystem, sm int, cycle int64, op isa.Opcode, reqs ...memReq) int64 {
	t.Helper()
	done := cycle + 1
	for _, r := range reqs {
		want := ms[0].access(sm, r.addr, r.arrive, op)
		for p := 1; p < len(ms); p++ {
			if got := ms[p].access(sm, r.addr, r.arrive, op); got != want {
				t.Fatalf("SM %d, request to %#x arriving at %d: pruned on %q it completes at %d, on %q at %d",
					sm, r.addr, r.arrive, mshrPolicies[p].name, got, mshrPolicies[0].name, want)
			}
		}
		done = max(done, want)
	}
	for p, m := range ms {
		mshrPolicies[p].prune(m, sm, cycle)
	}
	return done
}

// driveLaunch replays l's memory instructions against every policy's
// memSystem under a small in-order issue model: block b runs on SM
// b % NumSMs, the warp that is ready first issues next (ties to the lower
// SM, then warp), no SM issues before its previous issue, and a warp waits
// for its instruction's completion. Like the simulator, it prunes against
// the issue cycle, so out-of-order arrivals within one SM occur.
func driveLaunch(t *testing.T, cfg Config, l *kernel.Launch) {
	t.Helper()
	type warp struct {
		sm    int
		ready int64
		st    *trace.SynthStream
	}
	synth := trace.NewSynthetic(l)
	var warps []*warp
	for tb := 0; tb < l.NumBlocks(); tb++ {
		for w := 0; w < l.Kernel.WarpsPerBlock(); w++ {
			warps = append(warps, &warp{sm: tb % cfg.NumSMs, st: synth.WarpStream(tb, w)})
		}
	}
	ms := policyMems(cfg)
	last := make([]int64, cfg.NumSMs)
	var addrs [trace.MaxRequests]uint64
	var reqs []memReq
	for len(warps) > 0 {
		next := 0
		for i, w := range warps {
			if n := warps[next]; w.ready < n.ready || w.ready == n.ready && w.sm < n.sm {
				next = i
			}
		}
		w := warps[next]
		ev, ok := w.st.Next(addrs[:])
		for ok && ev.Op != isa.OpLDG && ev.Op != isa.OpSTG {
			ev, ok = w.st.Next(addrs[:])
		}
		if !ok {
			warps = append(warps[:next], warps[next+1:]...)
			continue
		}
		cycle := max(w.ready, last[w.sm])
		last[w.sm] = cycle
		reqs = reqs[:0]
		for i, addr := range addrs[:ev.NumReq] {
			reqs = append(reqs, memReq{addr, cycle + int64(i)})
		}
		w.ready = issueMem(t, ms, w.sm, cycle, ev.Op, reqs...)
	}
}

// issueCycleSequence is the sequence that pins the prune cycle: a fill
// completing at 262, then a request arriving at 270 from an instruction
// issued at 240, then one arriving at 251 from an instruction issued at
// 241, to the first fill's line. It returns the last request's completion.
func issueCycleSequence(t *testing.T) int64 {
	const a, b = 0x4000, 0x9000
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	ms := policyMems(cfg)
	if fill := issueMem(t, ms, 0, 0, isa.OpLDG, memReq{a, 0}); fill != 262 {
		t.Fatalf("cold fill completes at %d, want 262", fill)
	}
	issueMem(t, ms, 0, 240, isa.OpLDG, memReq{b, 270})
	return issueMem(t, ms, 0, 241, isa.OpLDG, memReq{a, 251})
}

// TestMSHRPruneAgainstIssueCycle: one SM's requests do not arrive in cycle
// order, so the MSHR table is pruned against the issuing instruction's
// cycle, never a request's arrival. On every prune schedule the request
// arriving at 251 must merge into the fill completing at 262; pruning
// against the arrival, 270, would drop that fill and make the request an
// L1 hit at 279.
func TestMSHRPruneAgainstIssueCycle(t *testing.T) {
	if got := issueCycleSequence(t); got != 262 {
		t.Errorf("request at 251 completes at %d, want the outstanding fill's 262", got)
	}
}

// TestMSHRPruneScheduleKeepsResults: every request completes at the same
// cycle whether the MSHR tables are pruned on the simulator's schedule,
// after every memory instruction, or never — on random launches, and on
// launches whose warps stride into each other's lines (stride ± one warp
// footprint), so fully divergent requests of neighbouring warps keep
// merging into fills that complete while later-issued, earlier-arriving
// requests are in flight — and on the sequence that pins the prune cycle.
func TestMSHRPruneScheduleKeepsResults(t *testing.T) {
	t.Run("issue-cycle sequence", func(t *testing.T) { issueCycleSequence(t) })
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	warpB := int32(trace.WarpFootprintB)
	for _, stride := range []int32{warpB, -warpB} {
		prog := isa.NewBuilder("shared").
			Block(isa.IALU()).
			LoopBlocks(0, isa.Load(32, 1, stride), isa.Load(3, 1, stride), isa.IALU(), isa.Branch()).
			EndBlock().
			Build()
		k := &kernel.Kernel{Name: "shared", Program: prog, ThreadsPerBlock: 8 * kernel.WarpSize}
		t.Run(fmt.Sprintf("stride %d", stride), func(t *testing.T) { driveLaunch(t, cfg, makeLaunch(k, 12, 12)) })
	}
	t.Run("random launches", func(t *testing.T) {
		var seed int64
		defer func() {
			if t.Failed() {
				t.Logf("randomLaunch seed %d", seed)
			}
		}()
		for ; seed < 40; seed++ {
			driveLaunch(t, cfg, randomLaunch(seed, uint8(7*seed), uint8(seed)))
		}
	})
}

// runUnpruned is RunLaunch through the epoch-parallel engine on a fresh
// arena whose MSHR tables are never pruned: their threshold is raised to
// 1<<14 entries after the reset. It also returns the prunes it made, which
// the caller requires to be zero.
func runUnpruned(s *Simulator, l *kernel.Launch, opts RunOptions) (*LaunchResult, int64) {
	ar := &runArena{sms: make([]smState, s.cfg.NumSMs)}
	ar.rs.mem = newMemSystem(s.cfg)
	ar.rs.sms = ar.sms
	rs := ar.reset(s, l, opts)
	for i := range rs.mem.mshrs {
		rs.mem.mshrs[i].limit = 1 << 14
	}
	rs.occ = s.cfg.Limits.BlocksPerSM(l.Kernel)
	rs.prepareSlots(s.cfg.NumSMs * rs.occ)
	rs.runParallel()
	return rs.res, rs.mem.prunes
}

// TestMSHRPruneScheduleKeepsParallelResults: the epoch-parallel engine's
// barrier prunes the MSHR tables in arrival order, but a request can
// arrive up to 31 cycles after the epoch ends, while the next epoch's
// requests arrive from its end on. Pruning on the simulator's schedule
// must give the LaunchResult of a run that never prunes, field for field.
// The cases have latencies short enough for a fill to complete inside
// that window, with warps striding into each other's lines; pruning
// against the late arrival instead of the epoch's end loses merges in
// every one of them.
func TestMSHRPruneScheduleKeepsParallelResults(t *testing.T) {
	cases := []struct {
		l1, l2, rowHit, rowMiss, sms int
		stride                       int32
		coalesce                     uint8
		warps, blocks, iters         int
		quantum                      int64
	}{
		{2, 7, 4, 10, 4, 2048, 16, 8, 7, 12, 2},
		{1, 20, 3, 19, 2, 4096, 32, 6, 11, 5, 1},
		{4, 5, 3, 20, 2, 4096, 32, 11, 5, 13, 1},
		{4, 11, 5, 11, 3, 4096, 32, 6, 6, 13, 4},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.NumSMs = c.sms
		cfg.L1.HitLat, cfg.L2.HitLat = c.l1, c.l2
		cfg.DRAM.RowHitLat, cfg.DRAM.RowMissLat = c.rowHit, c.rowMiss
		sim := MustNew(cfg)
		prog := isa.NewBuilder("shared").
			Block(isa.IALU()).
			LoopBlocks(0, isa.Load(c.coalesce, 1, c.stride), isa.IALU(), isa.Branch()).
			EndBlock().
			Build()
		k := &kernel.Kernel{Name: "shared", Program: prog, ThreadsPerBlock: c.warps * kernel.WarpSize}
		l := makeLaunch(k, c.blocks, c.iters)
		opts := RunOptions{Workers: 2, Quantum: c.quantum}
		want, prunes := runUnpruned(sim, l, opts)
		if prunes != 0 {
			t.Fatalf("%+v: the unpruned run pruned %d times", c, prunes)
		}
		if got := sim.RunLaunch(l, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: pruned run differs from the unpruned one: cycles %d vs %d, MSHR merges %d vs %d",
				c, got.Cycles, want.Cycles, got.MSHRMerges, want.MSHRMerges)
		}
	}
}

// footprint is the table's memory in bytes: index plus entries, by
// capacity.
func (t *mshrTable) footprint() int {
	return 4*cap(t.index) + 16*cap(t.ents)
}

// checkMSHROps runs raw, three bytes per operation, against a table and a
// map holding what the table must track: put (op%8 < 6), get (6) and prune
// (7). The second byte picks one of 256 lines, spread over small and huge
// values; the third advances the clock (prune) or sets a fill's lead over
// it (put, up to 8x a prune's advance, so dozens of fills stay
// outstanding). After every operation the index must point at each entry
// exactly once.
func checkMSHROps(t *testing.T, raw []byte) {
	var tab mshrTable
	tab.reset()
	ref := map[uint64]int64{}
	muls := [4]uint64{1, 128, 1 << 40, 0x9e3779b97f4a7c15}
	var clock int64
	for i := 0; i+2 < len(raw); i += 3 {
		op, b, c := raw[i]%8, raw[i+1], int64(raw[i+2])
		line := uint64(b>>2) * muls[b&3]
		switch op {
		case 6:
		case 7:
			clock += c
			tab.prune(clock)
			for l, done := range ref {
				if done <= clock {
					delete(ref, l)
				}
			}
			if want := max(mshrMinLimit, 2*len(ref)); tab.limit != want {
				t.Fatalf("op %d: prune kept %d entries, limit %d, want %d", i/3, len(ref), tab.limit, want)
			}
		default:
			tab.put(line, clock+8*c)
			ref[line] = clock + 8*c
		}
		if got := tab.get(line); got != ref[line] {
			t.Fatalf("op %d: get(%#x) = %d, want %d", i/3, line, got, ref[line])
		}
		if len(tab.ents) != len(ref) || 4*len(tab.ents) > 3*len(tab.index) {
			t.Fatalf("op %d: %d entries in %d index slots, want %d entries at most 3/4 load",
				i/3, len(tab.ents), len(tab.index), len(ref))
		}
		seen := make([]bool, len(tab.ents))
		for _, p := range tab.index {
			if p == 0 {
				continue
			}
			if int(p) > len(tab.ents) || seen[p-1] {
				t.Fatalf("op %d: index slot points at entry %d of %d twice or past the end", i/3, p-1, len(tab.ents))
			}
			seen[p-1] = true
		}
		if slices.Contains(seen, false) {
			t.Fatalf("op %d: an entry has no index slot", i/3)
		}
	}
	for l, done := range ref {
		if got := tab.get(l); got != done {
			t.Fatalf("end: get(%#x) = %d, want %d", l, got, done)
		}
	}
}

// FuzzMSHRTable holds the MSHR table to a map on arbitrary put/get/prune
// sequences (see checkMSHROps); the seeds include long random sequences
// that grow the table past several prune thresholds.
func FuzzMSHRTable(f *testing.F) {
	f.Add([]byte{0, 4, 10, 6, 4, 0, 7, 4, 90, 6, 4, 0, 7, 0, 1, 6, 4, 0})
	f.Add([]byte{0, 1, 5, 0, 5, 5, 0, 9, 5, 7, 0, 5, 6, 1, 0, 6, 5, 0})
	for seed := int64(0); seed < 4; seed++ {
		raw := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(raw)
		f.Add(raw)
	}
	f.Fuzz(checkMSHROps)
}
