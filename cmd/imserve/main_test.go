package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imdist"
	"imdist/internal/server"
)

func TestParseSketchSpec(t *testing.T) {
	cases := []struct {
		spec, name, path string
		wantErr          bool
	}{
		{spec: "ic=/tmp/a.sketch", name: "ic", path: "/tmp/a.sketch"},
		{spec: "/var/sketches/karate.sketch", name: "karate", path: "/var/sketches/karate.sketch"},
		{spec: "karate.sketch", name: "karate", path: "karate.sketch"},
		{spec: "=x", wantErr: true},
		{spec: "x=", wantErr: true},
		{spec: "", wantErr: true},
	}
	for _, c := range cases {
		name, path, err := server.ParseSketchSpec(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSketchSpec(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil || name != c.name || path != c.path {
			t.Errorf("ParseSketchSpec(%q) = %q, %q, %v; want %q, %q", c.spec, name, path, err, c.name, c.path)
		}
	}
}

func writeTestSketch(t *testing.T, dir, name string, rrSets int, seed uint64) string {
	t.Helper()
	network, err := imdist.LoadDataset("Karate")
	if err != nil {
		t.Fatal(err)
	}
	ig, err := network.AssignProbabilities("iwc", seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ig.NewInfluenceOracleWithOptions(imdist.OracleOptions{RRSets: rrSets, Seed: seed, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := oracle.SaveSketchFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScanSketchDir drives the SIGHUP rescan logic directly: new files are
// loaded under their base names, corrupt files are skipped without failing
// the scan, flag-pinned names are never replaced, and unchanged files are
// not reloaded on a rescan.
func TestScanSketchDir(t *testing.T) {
	dir := t.TempDir()
	writeTestSketch(t, dir, "a.sketch", 2000, 1)
	writeTestSketch(t, dir, "b.sketch", 2000, 2)
	if err := os.WriteFile(filepath.Join(dir, "corrupt.sketch"), []byte("not a sketch"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := server.NewRegistry(16)
	loaded, err := scanSketchDir(reg, dir, map[string]bool{"b": true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, unwanted := range []string{"b", "corrupt", "ignored"} {
		if _, ok := loaded[unwanted]; ok {
			t.Errorf("loaded %q, want only a (got %v)", unwanted, loaded)
		}
	}
	if _, ok := loaded["a"]; !ok {
		t.Errorf("loaded = %v, want a", loaded)
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "a" {
		t.Errorf("registry names = %v, want [a]", names)
	}

	// A second unpinned scan picks up b; the unchanged a is kept as loaded
	// (its stamp carries over) rather than reloaded.
	rescanned, err := scanSketchDir(reg, dir, nil, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if rescanned["a"] != loaded["a"] {
		t.Errorf("unchanged sketch restamped: %v vs %v", rescanned["a"], loaded["a"])
	}
	if names := reg.Names(); len(names) != 2 {
		t.Errorf("registry names after unpinned scan = %v, want [a b]", names)
	}

	// Touching a file's mtime invalidates its stamp, forcing a reload.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "a.sketch"), future, future); err != nil {
		t.Fatal(err)
	}
	touched, err := scanSketchDir(reg, dir, nil, rescanned)
	if err != nil {
		t.Fatal(err)
	}
	if touched["a"] == rescanned["a"] {
		t.Error("touched sketch kept its old stamp (was not reloaded)")
	}

	if _, err := scanSketchDir(reg, filepath.Join(dir, "missing"), nil, nil); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestRunRejectsMissingSketches(t *testing.T) {
	if err := run([]string{"-addr", ":0"}); err == nil {
		t.Error("run without -sketch or -sketch-dir accepted")
	}
	if err := run([]string{"-sketch", "=bad"}); err == nil {
		t.Error("run with malformed -sketch accepted")
	}
}

// TestRunCoordinatorRejectsServerFlags checks that -coordinator names every
// sketch-serving flag it was given instead of silently ignoring it. The
// unusable -addr makes a missed rejection fail fast rather than serve.
func TestRunCoordinatorRejectsServerFlags(t *testing.T) {
	base := []string{"-coordinator", "-shard-target", "http://127.0.0.1:1", "-addr", "no-port"}
	for _, extra := range [][]string{
		{"-sketch", "a.sketch"},
		{"-sketch-dir", "sketches"},
		{"-default", "ic"},
		{"-cache", "-1"},
		{"-batch-workers", "1"},
		{"-kernel", "epoch"},
		{"-read-timeout", "1s"},
		{"-write-timeout", "1s"},
		{"-cache", "16", "-kernel", "auto"},
	} {
		err := run(append(append([]string(nil), base...), extra...))
		for i := 0; i < len(extra); i += 2 {
			if err == nil || !strings.Contains(err.Error(), extra[i]) {
				t.Errorf("run %v: error %v does not name %s", extra, err, extra[i])
			}
		}
	}
}
