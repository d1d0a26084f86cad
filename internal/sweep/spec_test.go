package sweep

import (
	"strings"
	"testing"

	"nwcache/internal/core"
)

const testSpecText = `
# a small but multi-axis grid
name unit
apps em3d,gauss
kinds standard,nwcache
modes naive,optimal
seeds 1..2
scale 0.05
param MinFreeFrames 2,8
fault none
fault recovery=conservative seed=3 plan=disk read-error rate=0.01
`

func testSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec(testSpecText)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSpecAxes(t *testing.T) {
	s := testSpec(t)
	if got := s.NumCells(); got != 2*2*2*2*2*2 {
		t.Fatalf("NumCells = %d, want 64", got)
	}
	if len(s.Faults) != 2 || !s.Faults[0].none() || s.Faults[1].Recovery != "conservative" {
		t.Fatalf("fault axis parsed wrong: %+v", s.Faults)
	}
	if s.Faults[1].Plan != "disk read-error rate=0.01" {
		t.Fatalf("plan = %q", s.Faults[1].Plan)
	}
	if s.Scale != 0.05 || s.Name != "unit" {
		t.Fatalf("scale/name = %v/%q", s.Scale, s.Name)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("scale 0.1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Apps) != len(core.Apps()) {
		t.Fatalf("default apps = %v", s.Apps)
	}
	if len(s.Kinds) != 2 || len(s.Modes) != 2 || len(s.Seeds) != 1 || len(s.Faults) != 1 {
		t.Fatalf("defaults: kinds=%d modes=%d seeds=%d faults=%d",
			len(s.Kinds), len(s.Modes), len(s.Seeds), len(s.Faults))
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, text := range []string{
		"apps nosuchapp\n",
		"param NoSuchField 1,2\n",
		"param MinFreeFrames not-json\n",
		"kinds hybrid\n",
		"modes psychic\n",
		"seeds 5..1\n",
		"scale -1\n",
		"bogus directive\n",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted bad input", text)
		}
	}
}

func TestCanonRoundTrip(t *testing.T) {
	s := testSpec(t)
	s2, err := ParseSpec(s.Canon())
	if err != nil {
		t.Fatalf("Canon does not re-parse: %v\n%s", err, s.Canon())
	}
	if s.Canon() != s2.Canon() {
		t.Fatalf("Canon not a fixed point:\n%s\nvs\n%s", s.Canon(), s2.Canon())
	}
	if s.Digest() != s2.Digest() {
		t.Fatal("round-tripped spec has a different digest")
	}
	// A different grid must have a different identity.
	other, err := ParseSpec(strings.Replace(testSpecText, "seeds 1..2", "seeds 1..3", 1))
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest() == s.Digest() {
		t.Fatal("different grids share a digest")
	}
}

func TestEachCellDeterministicAndComplete(t *testing.T) {
	s := testSpec(t)
	var keys1, keys2 []string
	walk := func(out *[]string) {
		if err := s.EachCell(func(idx int, c core.Cell) error {
			if idx != len(*out) {
				t.Fatalf("idx %d out of sequence (have %d cells)", idx, len(*out))
			}
			*out = append(*out, c.Key())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	walk(&keys1)
	walk(&keys2)
	if len(keys1) != s.NumCells() {
		t.Fatalf("enumerated %d cells, NumCells says %d", len(keys1), s.NumCells())
	}
	seen := make(map[string]bool)
	for i := range keys1 {
		if keys1[i] != keys2[i] {
			t.Fatalf("enumeration not deterministic at cell %d", i)
		}
		if seen[keys1[i]] {
			t.Fatalf("duplicate cell key at index %d", i)
		}
		seen[keys1[i]] = true
	}
}

func TestEachCellAppliesAxes(t *testing.T) {
	s := testSpec(t)
	minfree := make(map[int]int)
	faulted := 0
	if err := s.EachCell(func(idx int, c core.Cell) error {
		minfree[c.Cfg.MinFreeFrames]++
		if c.FaultPlan != "" {
			faulted++
			if c.Recovery != "conservative" || c.FaultSeed != 3 {
				t.Fatalf("fault cell missing recovery/seed: %+v", c)
			}
		}
		if c.Cfg.Scale != 0.05 {
			t.Fatalf("cell scale = %v", c.Cfg.Scale)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The MinFreeFrames axis overrides the paper floor on every cell.
	if minfree[2] != 32 || minfree[8] != 32 {
		t.Fatalf("MinFreeFrames distribution = %v, want 32 each of 2 and 8", minfree)
	}
	if faulted != s.NumCells()/2 {
		t.Fatalf("faulted cells = %d, want %d", faulted, s.NumCells()/2)
	}
}

func TestPaperMinFreeAppliedWithoutAxis(t *testing.T) {
	s, err := ParseSpec("apps gauss\nkinds standard,nwcache\nmodes naive,optimal\nscale 0.05\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EachCell(func(idx int, c core.Cell) error {
		if want := core.PaperMinFree(c.Kind, c.Mode); c.Cfg.MinFreeFrames != want {
			t.Fatalf("cell %d (%s): MinFreeFrames = %d, want paper %d",
				idx, c.Label(), c.Cfg.MinFreeFrames, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestShardPartitionCompleteAndDisjoint(t *testing.T) {
	s := testSpec(t)
	total := s.NumCells()
	for _, n := range []int{1, 2, 3, 4, 7} {
		owner := make([]int, total)
		for i := range owner {
			owner[i] = -1
		}
		for shard := 0; shard < n; shard++ {
			count := 0
			if err := s.EachShardCell(shard, n, func(idx int, c core.Cell) error {
				if owner[idx] != -1 {
					t.Fatalf("n=%d: cell %d owned by shards %d and %d", n, idx, owner[idx], shard)
				}
				if ShardOf(idx, n) != shard {
					t.Fatalf("n=%d: cell %d delivered to shard %d, ShardOf says %d",
						n, idx, shard, ShardOf(idx, n))
				}
				owner[idx] = shard
				count++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := s.ShardSize(shard, n); count != want {
				t.Fatalf("n=%d shard %d: %d cells, ShardSize says %d", n, shard, count, want)
			}
		}
		for idx, o := range owner {
			if o == -1 {
				t.Fatalf("n=%d: cell %d owned by no shard", n, idx)
			}
		}
	}
}

const zipSpecText = `
name zip
apps gauss
kinds nwcache
modes optimal
param Nodes 4,8
zip MeshW 2,4
zip MeshH 2,2
param DCD false,true
`

func TestZipCanonRoundTrip(t *testing.T) {
	s, err := ParseSpec(zipSpecText)
	if err != nil {
		t.Fatal(err)
	}
	canon := s.Canon()
	if !strings.Contains(canon, "param Nodes 4,8\nzip MeshW 2,4\nzip MeshH 2,2\nparam DCD false,true\n") {
		t.Fatalf("zip lines not rendered right after their axis:\n%s", canon)
	}
	s2, err := ParseSpec(canon)
	if err != nil {
		t.Fatalf("Canon does not re-parse: %v\n%s", err, canon)
	}
	if s2.Canon() != canon || s2.Digest() != s.Digest() {
		t.Fatalf("zip spec not a Canon fixed point:\n%s\nvs\n%s", canon, s2.Canon())
	}
	unzipped, err := ParseSpec(strings.Replace(zipSpecText, "zip MeshH 2,2\n", "", 1))
	if err == nil && unzipped.Digest() == s.Digest() {
		t.Fatal("dropping a zip line kept the digest")
	}
}

func TestZipRejectsOrphanAndLengthMismatch(t *testing.T) {
	for _, text := range []string{
		"apps gauss\nzip MeshW 2,4\n",
		"apps gauss\nparam Nodes 4,8\nzip MeshW 2\n",
		"apps gauss\nparam Nodes 4,8\nzip MeshW 2,4,4\n",
		"apps gauss\nparam Nodes 4,8\nzip NoSuchField 2,4\n",
		"apps gauss\nparam Nodes 4,8\nzip MeshW\n",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad zip", text)
		}
	}
}

func TestZipEachCellLockstep(t *testing.T) {
	s, err := ParseSpec(zipSpecText)
	if err != nil {
		t.Fatal(err)
	}
	// The zipped group is one axis: 2 shapes x 2 DCD settings.
	if got := s.NumCells(); got != 4 {
		t.Fatalf("NumCells = %d, want 4", got)
	}
	type shape struct{ nodes, w, h int }
	var got []shape
	var dcd []bool
	if err := s.EachCell(func(idx int, c core.Cell) error {
		got = append(got, shape{c.Cfg.Nodes, c.Cfg.MeshW, c.Cfg.MeshH})
		dcd = append(dcd, c.Cfg.DCD)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []shape{{4, 2, 2}, {4, 2, 2}, {8, 4, 2}, {8, 4, 2}}
	for i := range want {
		if got[i] != want[i] || dcd[i] != (i%2 == 1) {
			t.Fatalf("cell %d: shape %+v dcd %v, want %+v dcd %v", i, got[i], dcd[i], want[i], i%2 == 1)
		}
	}
}

// TestZipFreeDigestPinned pins a zip-free spec's digest to the value it
// had before the zip directive existed: STATE files and manifests
// written then must stay valid.
func TestZipFreeDigestPinned(t *testing.T) {
	const want = "6411f1f23c0ffe5c8c4f3adf9d1473786132bffa8626ef998394577843ac539d"
	if got := testSpec(t).Digest(); got != want {
		t.Fatalf("Digest = %s, want %s", got, want)
	}
}

// TestParamAcceptsOmittedField sweeps a config field that the base
// configuration's JSON form omits (omitempty at its zero value).
func TestParamAcceptsOmittedField(t *testing.T) {
	s, err := ParseSpec("apps gauss\nkinds nwcache\nmodes optimal\nparam RoundRobinDrain false,true\n")
	if err != nil {
		t.Fatal(err)
	}
	var rr []bool
	if err := s.EachCell(func(idx int, c core.Cell) error {
		rr = append(rr, c.Cfg.RoundRobinDrain)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rr) != 2 || rr[0] || !rr[1] {
		t.Fatalf("RoundRobinDrain per cell = %v, want [false true]", rr)
	}
}
