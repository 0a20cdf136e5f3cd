// Package examples holds no library code: each subdirectory is a
// runnable program. This test builds and runs every one of them, so a
// heuristic name or API an example uses cannot go stale unnoticed.
package examples

import (
	"os/exec"
	"path/filepath"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example program")
	}
	mains, err := filepath.Glob("*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Dir(m)
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = ".."
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
		})
	}
}
