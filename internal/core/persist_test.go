package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tbpoint/internal/durable"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/workloads"
)

func TestRegionTableRoundTrip(t *testing.T) {
	k := phasedKernel()
	l := launchWithPhases(k, 120, [][2]int{{12, 1}, {2, 8}})
	lp := funcsim.ProfileLaunch(l)
	rt := IdentifyRegions(lp, 12, 0.2, 0.3)

	var buf bytes.Buffer
	if err := WriteRegionTable(&buf, rt); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := ReadRegionTable(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.Occupancy != rt.Occupancy || back.NumRegions != rt.NumRegions {
		t.Errorf("header mismatch: %+v vs %+v", back, rt)
	}
	for tb := range rt.RegionOf {
		if back.RegionOf[tb] != rt.RegionOf[tb] {
			t.Fatalf("RegionOf[%d] = %d, want %d", tb, back.RegionOf[tb], rt.RegionOf[tb])
		}
	}
}

func TestRegionTableRejectsBadInput(t *testing.T) {
	cases := []string{
		"{garbage",
		`{"format":"wrong","occupancy":1,"numBlocks":0,"numRegions":0,"rows":[]}`,
		// Rows with a gap.
		`{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":2,
		  "rows":[{"Start":0,"End":1,"ID":0},{"Start":2,"End":4,"ID":1}]}`,
		// Rows ending short.
		`{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":1,
		  "rows":[{"Start":0,"End":2,"ID":0}]}`,
		// Out-of-range row.
		`{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":2,"numRegions":1,
		  "rows":[{"Start":0,"End":5,"ID":0}]}`,
	}
	for i, c := range cases {
		if _, err := ReadRegionTable(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestProfilesRoundTrip(t *testing.T) {
	k := phasedKernel()
	app := &kernel.App{Name: "roundtrip", Launches: []*kernel.Launch{
		uniformLaunch(k, 20, 8, 2),
		uniformLaunch(k, 10, 4, 6),
	}}
	prof := ProfileApp(app)

	var buf bytes.Buffer
	if err := WriteProfiles(&buf, app.Name, prof.Profiles); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := ReadProfiles(bytes.NewReader(buf.Bytes()), app.Name)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(back) != len(prof.Profiles) {
		t.Fatalf("launch count %d, want %d", len(back), len(prof.Profiles))
	}
	for li := range back {
		if back[li].NumBlocks() != prof.Profiles[li].NumBlocks() {
			t.Fatalf("launch %d block count mismatch", li)
		}
		for tb := 0; tb < back[li].NumBlocks(); tb++ {
			if back[li].Block(tb) != prof.Profiles[li].Block(tb) {
				t.Fatalf("launch %d block %d differs", li, tb)
			}
		}
	}

	// A reloaded profile drives the pipeline identically to a fresh one.
	reloaded := &AppProfile{App: app, Profiles: back}
	a := InterLaunch(prof.Profiles, 0.1)
	b := InterLaunch(reloaded.Profiles, 0.1)
	for li := range a.Assign {
		if a.Assign[li] != b.Assign[li] {
			t.Fatal("reloaded profile clusters differently")
		}
	}

	// Name mismatch is rejected; empty name skips the check.
	if _, err := ReadProfiles(bytes.NewReader(buf.Bytes()), "other"); err == nil {
		t.Error("app name mismatch accepted")
	}
	if _, err := ReadProfiles(bytes.NewReader(buf.Bytes()), ""); err != nil {
		t.Errorf("empty-name load failed: %v", err)
	}
}

func TestProfilesRejectBadInput(t *testing.T) {
	if _, err := ReadProfiles(strings.NewReader("{bad"), ""); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadProfiles(strings.NewReader(`{"format":"nope"}`), ""); err == nil {
		t.Error("wrong format accepted")
	}
}

// TestProfilesFileDurableRoundTrip covers the envelope-wrapped on-disk form
// (-save-profile/-load-profile): a clean round trip, then a byte flip and a
// truncation, each of which must surface as the matching typed error rather
// than a half-parsed profile.
func TestProfilesFileDurableRoundTrip(t *testing.T) {
	k := phasedKernel()
	app := &kernel.App{Name: "durable", Launches: []*kernel.Launch{
		uniformLaunch(k, 20, 8, 2),
		uniformLaunch(k, 10, 4, 6),
	}}
	prof := ProfileApp(app)
	path := filepath.Join(t.TempDir(), "durable.profile")
	if err := WriteProfilesFile(path, app.Name, prof.Profiles); err != nil {
		t.Fatal(err)
	}

	back, err := ReadProfilesFile(path, app.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(prof.Profiles) {
		t.Fatalf("launch count %d, want %d", len(back), len(prof.Profiles))
	}
	for li := range back {
		for tb := 0; tb < back[li].NumBlocks(); tb++ {
			if back[li].Block(tb) != prof.Profiles[li].Block(tb) {
				t.Fatalf("launch %d block %d differs after file round trip", li, tb)
			}
		}
	}
	if _, err := ReadProfilesFile(path, "other"); err == nil {
		t.Error("app name mismatch accepted from file")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfilesFile(path, app.Name); !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, durable.ErrTruncated) {
		t.Errorf("corrupted profile file: err = %v, want typed corruption", err)
	}

	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfilesFile(path, app.Name); !errors.Is(err, durable.ErrTruncated) {
		t.Errorf("truncated profile file: err = %v, want ErrTruncated", err)
	}
}

// The tbpoint-profile-v1 bytes are pinned: testdata holds files written
// before profiles were stored per shape (scale 0.05, seed 1). Profiling the
// same build must write them byte for byte, and reading one back must give
// every block its counters with one stored row per distinct counter triple.
func TestProfileFormatPinned(t *testing.T) {
	for _, name := range []string{"mri", "conv"} {
		want, err := os.ReadFile(filepath.Join("testdata", "profile_v1_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof := ProfileApp(s.Build(workloads.Config{Scale: 0.05, Seed: 1}))
		var got bytes.Buffer
		if err := WriteProfiles(&got, name, prof.Profiles); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteProfiles wrote %d bytes that differ from the pinned %d", name, got.Len(), len(want))
		}

		back, err := ReadProfiles(bytes.NewReader(want), name)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(prof.Profiles) {
			t.Fatalf("%s: read %d launches, want %d", name, len(back), len(prof.Profiles))
		}
		for li, lp := range back {
			fresh := prof.Profiles[li]
			if lp.NumBlocks() != fresh.NumBlocks() || !slices.Equal(lp.BlockCounts, fresh.BlockCounts) {
				t.Fatalf("%s launch %d: %d blocks, BlockCounts %v; want %d, %v",
					name, li, lp.NumBlocks(), lp.BlockCounts, fresh.NumBlocks(), fresh.BlockCounts)
			}
			distinct := map[funcsim.TBProfile]bool{}
			for tb := 0; tb < lp.NumBlocks(); tb++ {
				if lp.Block(tb) != fresh.Block(tb) {
					t.Fatalf("%s launch %d block %d: read %+v, want %+v", name, li, tb, lp.Block(tb), fresh.Block(tb))
				}
				distinct[lp.Block(tb)] = true
			}
			if len(lp.Shapes) != len(distinct) {
				t.Errorf("%s launch %d: %d stored rows for %d distinct counter triples", name, li, len(lp.Shapes), len(distinct))
			}
		}
	}
}
