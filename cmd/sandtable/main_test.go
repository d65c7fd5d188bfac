package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/explorer"
)

// TestCheckInterruptIsCooperative drives the built binary: one SIGINT to a
// checkpointing `check` ends it cleanly — exit 0, the normal summary line
// with "stop: canceled" — and leaves a checkpoint a -resume run continues
// from. (The resume leg stops at once on -max-states; it only has to load.)
func TestCheckInterruptIsCooperative(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs os.Interrupt delivery to a child process")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "sandtable")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ck := filepath.Join(tmp, "ck")
	check := func(extra ...string) *exec.Cmd {
		args := append([]string{"check", "-system", "craft", "-fixed", "-trace=false", "-deadline", "90s",
			"-checkpoint", ck, "-checkpoint-states", "2000"}, extra...)
		return exec.Command(bin, args...)
	}

	var stdout, stderr bytes.Buffer
	cmd := check()
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	snap := filepath.Join(ck, explorer.ManifestFile)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("check ended before its first checkpoint: %v\n%s%s", err, stdout.String(), stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no %s after 60s", snap)
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted check: %v, want exit 0\n%s%s", err, stdout.String(), stderr.String())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("check still running 60s after SIGINT\n%s%s", stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "stop: canceled") {
		t.Errorf("summary line lacks \"stop: canceled\":\n%s", stdout.String())
	}

	out, err := check("-resume", "-max-states", "1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "resumed from "+ck) {
		t.Errorf("resume after interrupt: %v\n%s", err, out)
	}
}
