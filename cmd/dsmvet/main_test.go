package main

import (
	"os/exec"
	"testing"
)

// TestDsmvetCleanOnRepo runs the checker over the whole repository exactly
// the way CI's lint job does — `go run ./cmd/dsmvet ./...` from the module
// root — and requires a zero exit status with no output.
func TestDsmvetCleanOnRepo(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "run", "./cmd/dsmvet", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dsmvet failed (%v); output:\n%s", err, out)
	}
	if len(out) != 0 {
		t.Fatalf("dsmvet exited 0 but produced output:\n%s", out)
	}
}
