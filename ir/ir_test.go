package ir_test

import (
	"testing"

	"tbpoint"
	"tbpoint/ir"
)

func TestBuildAndRunCustomProgram(t *testing.T) {
	prog := ir.NewBuilder("custom").
		Block(ir.IALU(), ir.Shared()).
		LoopBlocks(0, ir.Cat(
			ir.Load(2, 1, 128),
			ir.Rep(ir.FALU(), 3),
			ir.Store(1, 2, 128).AsIrregular(),
			ir.Branch(),
		)...).
		Block(ir.Barrier()).
		EndBlock(ir.SFU()).
		Build()
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if prog.NumTripParams() != 1 {
		t.Errorf("NumTripParams = %d", prog.NumTripParams())
	}

	// The cursor walks the dynamic stream.
	cur := ir.NewCursor(prog, []int{3})
	n := int64(0)
	for {
		if _, _, _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	if want := prog.WarpInstCount([]int{3}); n != want {
		t.Errorf("cursor yielded %d, want %d", n, want)
	}

	// The program plugs into the full pipeline via the facade types.
	k := &tbpoint.Kernel{Name: "custom", Program: prog, ThreadsPerBlock: 64}
	if err := k.Validate(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	params := make([]tbpoint.TBParams, 60)
	for i := range params {
		params[i] = tbpoint.TBParams{Trips: []int{4}, ActiveFrac: 1, Seed: uint64(i + 1)}
	}
	app := &tbpoint.App{Name: "custom", Launches: []*tbpoint.Launch{
		tbpoint.NewLaunch(k, 0, params),
	}}
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 2
	sim := tbpoint.MustNewSimulator(cfg)
	res, err := tbpoint.Run(sim, tbpoint.Profile(app), tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.PredictedIPC <= 0 {
		t.Error("pipeline produced no prediction for a custom kernel")
	}
}

func TestOpcodesExported(t *testing.T) {
	ops := []ir.Opcode{ir.OpIALU, ir.OpFALU, ir.OpSFU, ir.OpLDG, ir.OpSTG,
		ir.OpLDS, ir.OpBRA, ir.OpBAR, ir.OpEXIT}
	seen := map[ir.Opcode]bool{}
	for _, op := range ops {
		if !op.Valid() {
			t.Errorf("opcode %v invalid", op)
		}
		if seen[op] {
			t.Errorf("duplicate opcode %v", op)
		}
		seen[op] = true
	}
	if !ir.OpLDG.IsMem() || ir.OpIALU.IsMem() {
		t.Error("IsMem misclassifies")
	}
}
