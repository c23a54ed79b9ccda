package sampler

import (
	"reflect"
	"strings"
	"testing"

	"tbpoint/internal/stats"
)

func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{NameRandom, NameSystematic, NameSimPoint, NameTBPoint, NameStratified}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		s, ok := Get(n)
		if !ok {
			t.Fatalf("Get(%q) missing", n)
		}
		if s.Name != n {
			t.Errorf("Get(%q).Name = %q", n, s.Name)
		}
		if s.Display == "" || s.Abbrev == "" || s.Estimate == nil {
			t.Errorf("%q: empty display/abbrev", n)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   []string
		want []string
		err  bool
	}{
		{nil, DefaultSet(), false},
		{[]string{}, DefaultSet(), false},
		{[]string{"", "  "}, DefaultSet(), false},
		{[]string{"default"}, DefaultSet(), false},
		{[]string{"all"}, Names(), false},
		// Canonical order regardless of input order, duplicates collapse.
		{[]string{"tbpoint", "random", "random"}, []string{NameRandom, NameTBPoint}, false},
		{[]string{" TBPoint ", "STRATIFIED"}, []string{NameTBPoint, NameStratified}, false},
		{[]string{"default", "stratified"},
			[]string{NameRandom, NameSimPoint, NameTBPoint, NameStratified}, false},
		{[]string{"bogus"}, nil, true},
	}
	for _, c := range cases {
		got, err := Normalize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("Normalize(%v): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("Normalize(%v): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseListAndResolve(t *testing.T) {
	names, err := ParseList(" stratified, random ")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{NameRandom, NameStratified}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ParseList = %v, want %v", names, want)
	}
	set, err := Resolve(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != NameRandom || set[1].Name != NameStratified {
		t.Fatalf("Resolve order wrong: %s, %s", set[0].Name, set[1].Name)
	}
	if _, err := ParseList("random,bogus"); err == nil {
		t.Error("ParseList with unknown name: no error")
	}
	if _, err := Resolve([]string{"bogus"}); err == nil {
		t.Error("Resolve with unknown name: no error")
	}
	if names, err := ParseList(""); err != nil || !reflect.DeepEqual(names, DefaultSet()) {
		t.Errorf("ParseList(\"\") = %v, %v", names, err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no panic", what)
			} else if !strings.Contains(r.(string), "sampler:") {
				t.Errorf("%s: unexpected panic %v", what, r)
			}
		}()
		f()
	}
	fake := func(Input) (Outcome, error) { return Outcome{}, nil }
	mustPanic("duplicate", func() { Register(Sampler{Name: NameRandom, Estimate: fake}) })
	mustPanic("empty name", func() { Register(Sampler{Estimate: fake}) })
}

// TestRandomCIUsesSelectedUnits: Random's CI counts the units it selected.
// Rebuilding that count from SampleSize (a share of instructions) goes wrong
// when units differ in size: here one unit carries most instructions, so
// the rebuilt count is 0 or all 20 and the interval collapses to zero.
func TestRandomCIUsesSelectedUnits(t *testing.T) {
	full := synthRun([]int{20}, bumpy)
	full.Launches[0].FixedUnits[0].WarpInsts = 100000
	full.Launches[0].SimulatedWarpInsts += 100000 - 1000
	s, _ := Get(NameRandom)
	out, err := s.Estimate(Input{Full: full, Params: Params{Frac: 0.1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	units, _ := full.AllFixedUnits()
	ys := make([]float64, len(units))
	for i, u := range units {
		ys[i] = float64(u.Cycles)
	}
	const N, n = 20.0, 2.0 // round(0.1 × 20) units selected
	hw := stats.NormalCI95Half(N * N * (1 - n/N) * stats.SampleVariance(ys) / n)
	if want := out.Estimate.PredictedIPC * hw / out.Estimate.PredictedCycles; out.CIHalf != want || want <= 0 {
		t.Errorf("CIHalf = %v, want %v from the %v selected units", out.CIHalf, want, n)
	}
}
