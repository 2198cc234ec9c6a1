package cli

import (
	"os"
	"path/filepath"
	"testing"

	"bsched/internal/deps"
	"bsched/internal/experiments"
	"bsched/internal/machine"
)

func TestParseProc(t *testing.T) {
	cases := []struct {
		in   string
		want machine.Config
	}{
		{"unlimited", machine.UNLIMITED()},
		{"max8", machine.MAX(8)},
		{"len8", machine.LEN(8)},
		{"max2", machine.MAX(2)},
		{"unlimitedx4", machine.UNLIMITED().Wide(4)},
		{"max8x2", machine.MAX(8).Wide(2)},
	}
	for _, c := range cases {
		got, err := ParseProc(c.in)
		if err != nil {
			t.Errorf("ParseProc(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseProc(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "turbo", "max0", "len-1", "unlimitedx0", "maxx"} {
		if _, err := ParseProc(bad); err == nil {
			t.Errorf("ParseProc(%q): no error", bad)
		}
	}
}

func TestParseAlias(t *testing.T) {
	if m, err := ParseAlias("disjoint"); err != nil || m != deps.AliasDisjoint {
		t.Errorf("disjoint: %v %v", m, err)
	}
	if m, err := ParseAlias("conservative"); err != nil || m != deps.AliasConservative {
		t.Errorf("conservative: %v %v", m, err)
	}
	if _, err := ParseAlias("maybe"); err == nil {
		t.Errorf("bad mode accepted")
	}
}

func TestPickScheduler(t *testing.T) {
	r := experiments.DefaultRunner()
	for _, name := range []string{"balanced", "traditional", "average"} {
		kind, err := PickScheduler(r, name, 2.5)
		if err != nil || kind.Policy != name {
			t.Errorf("%s: policy %q, %v", name, kind.Policy, err)
		}
	}
	if k, err := PickScheduler(r, "traditional", 7.6); err != nil || k.Name != "traditional(7.6)" {
		t.Errorf("traditional name = %q (%v)", k.Name, err)
	}
	if _, err := PickScheduler(r, "magic", 1); err == nil {
		t.Errorf("bad scheduler accepted")
	}
}

func TestReadInputFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ir")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInput(path)
	if err != nil || got != "hello" {
		t.Errorf("ReadInput = %q, %v", got, err)
	}
	if _, err := ReadInput(filepath.Join(dir, "missing.ir")); err == nil {
		t.Errorf("missing file accepted")
	}
}
