package gpusim

import "tbpoint/internal/metrics"

// dram models a banked, multi-channel DRAM with an open-row policy. Each
// bank tracks when it next becomes free and which row its buffer holds; an
// access queues behind the bank's previous work (FR-FCFS-like: consecutive
// same-row accesses pay the short row-hit service time). The queueing makes
// the observed stall latency a random variable — exactly the "variable
// memory latencies due to resource contention and/or queuing delay" that
// motivate the paper's Markov model.
type dram struct {
	cfg      DRAMConfig
	nextFree []int64  // per (channel, bank): cycle the bank is free
	openRow  []uint64 // per (channel, bank): open row + 1 (0 = closed)
	bankMask uint64   // Banks-1 when Banks is a power of two, else 0
	mc       *metrics.Collector

	Accesses int64
	RowHits  int64
	queued   int64 // accesses that waited behind a busy bank
}

func newDRAM(cfg DRAMConfig) *dram {
	n := cfg.Channels * cfg.Banks
	d := &dram{
		cfg:      cfg,
		nextFree: make([]int64, n),
		openRow:  make([]uint64, n),
	}
	if b := uint64(cfg.Banks); b > 0 && b&(b-1) == 0 {
		d.bankMask = b - 1
	}
	return d
}

// access issues a request for addr arriving at the controller at cycle
// `arrive` and returns the cycle the data is back at L2.
func (d *dram) access(addr uint64, arrive int64) int64 {
	d.Accesses++
	row := addr >> uint(d.cfg.RowBits)
	// Interleave channels and banks on row-ish granularity so streams
	// spread across banks while same-row locality is preserved. One divide
	// covers both the channel remainder and the bank quotient.
	q := row / uint64(d.cfg.Channels)
	ch := int(row - q*uint64(d.cfg.Channels))
	var bank int
	if d.bankMask != 0 {
		bank = int(q & d.bankMask)
	} else {
		bank = int(q % uint64(d.cfg.Banks))
	}
	b := ch*d.cfg.Banks + bank

	// Row hits and queueing depend on the access stream, so both are counted
	// with flags and selected with max instead of branches.
	hit := b2i(d.openRow[b] == row+1)
	d.RowHits += hit
	service := int64(d.cfg.RowMissLat) + (int64(d.cfg.RowHitLat)-int64(d.cfg.RowMissLat))&-hit
	d.queued += b2i(d.nextFree[b] > arrive)
	start := max(arrive, d.nextFree[b]) // queueing delay behind the bank
	if d.mc != nil {
		d.mc.Observe(metrics.DistDRAMQueueWait, uint64(start-arrive))
	}
	done := start + service
	d.nextFree[b] = done
	d.openRow[b] = row + 1
	return done + int64(d.cfg.BaseLat)
}

// b2i is 1 for true and 0 for false; the compiler emits a flag set, not a
// branch.
func b2i(b bool) int64 {
	var i int64
	if b {
		i = 1
	}
	return i
}

// reset clears bank state and statistics.
func (d *dram) reset() {
	for i := range d.nextFree {
		d.nextFree[i] = 0
		d.openRow[i] = 0
	}
	d.Accesses, d.RowHits, d.queued = 0, 0, 0
}
