package main

import (
	"encoding/json"
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

// TestDsmvetJSONReport checks the -json output shape: schema 2 and a
// diagnostics array.
func TestDsmvetJSONReport(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "run", "./cmd/dsmvet", "-json", "./internal/core", "./internal/cashmere")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dsmvet -json failed (%v); output:\n%s", err, out)
	}
	var rep jsonReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("unmarshaling -json output: %v\n%s", err, out)
	}
	if rep.Schema != 2 {
		t.Errorf("schema = %d, want 2", rep.Schema)
	}
	if rep.Diagnostics == nil {
		t.Errorf("diagnostics field missing (want empty array, not null)")
	}
}
