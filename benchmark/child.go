package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// scrubbed are the variables removed from every child's environment. The CLI
// derives -mem-budget from GOMEMLIMIT, and GOGC/GODEBUG change the collector:
// a benchmark run must not depend on what the caller's shell exported.
// GOMAXPROCS is removed and then set explicitly per child.
var scrubbed = []string{"GOMEMLIMIT", "GOGC", "GODEBUG", "GOMAXPROCS"}

// childEnv is the caller's environment without the scrubbed variables.
func childEnv() (env []string, removed map[string]string) {
	removed = make(map[string]string)
	for _, kv := range os.Environ() {
		name, val, _ := strings.Cut(kv, "=")
		if slices.Contains(scrubbed, name) {
			removed[name] = val
			continue
		}
		env = append(env, kv)
	}
	return env, removed
}

// stampedLine is one line of a child's standard output with the time it
// arrived, measured from the child's start.
type stampedLine struct {
	At   time.Duration
	Text string
}

// childRun is the outcome of one child process.
type childRun struct {
	Args       []string
	GOMAXPROCS int
	Wall       time.Duration
	CPU        time.Duration
	MaxRSSKiB  int64
	Lines      []stampedLine
	Stderr     string
	Err        error
}

// lineAt returns when the first stdout line containing substr arrived.
func (c *childRun) lineAt(substr string) (time.Duration, bool) {
	for _, l := range c.Lines {
		if strings.Contains(l.Text, substr) {
			return l.At, true
		}
	}
	return 0, false
}

// child is a started sandtable process.
type child struct {
	cmd    *exec.Cmd
	start  time.Time
	cancel context.CancelFunc
	run    *childRun
	mu     sync.Mutex
	done   chan struct{} // closed when stdout is drained
	stderr strings.Builder
}

// startChild starts the built sandtable binary with GOMAXPROCS set explicitly
// and the scrubbed environment. The process is killed when deadline passes.
func (h *harness) startChild(gomaxprocs int, deadline time.Duration, args ...string) (*child, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	cmd := exec.CommandContext(ctx, h.binary, args...)
	cmd.Dir = h.root
	cmd.Env = append(append([]string(nil), h.env...), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	c := &child{cmd: cmd, cancel: cancel, done: make(chan struct{}),
		run: &childRun{Args: args, GOMAXPROCS: gomaxprocs}}
	cmd.Stderr = &c.stderr
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("start %s: %w", strings.Join(args, " "), err)
	}
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			l := stampedLine{At: time.Since(c.start), Text: sc.Text()}
			c.mu.Lock()
			c.run.Lines = append(c.run.Lines, l)
			c.mu.Unlock()
		}
		io.Copy(io.Discard, stdout)
	}()
	return c, nil
}

// waitLine blocks until a stdout line containing substr has arrived, the
// child's output ends, or timeout passes.
func (c *child) waitLine(substr string, timeout time.Duration) (string, bool) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		for _, l := range c.run.Lines {
			if strings.Contains(l.Text, substr) {
				c.mu.Unlock()
				return l.Text, true
			}
		}
		c.mu.Unlock()
		select {
		case <-c.done:
			return "", false
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return "", false
		}
	}
}

// wait reaps the child and fills in wall time and resource usage.
func (c *child) wait() *childRun {
	<-c.done
	err := c.cmd.Wait()
	c.run.Wall = time.Since(c.start)
	c.cancel()
	if ps := c.cmd.ProcessState; ps != nil {
		c.run.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.run.MaxRSSKiB = int64(ru.Maxrss)
		}
	}
	c.run.Stderr = c.stderr.String()
	c.run.Err = err
	return c.run
}

// stop ends a daemon child with SIGTERM and reaps it.
func (c *child) stop() *childRun {
	c.cmd.Process.Signal(syscall.SIGTERM)
	r := c.wait()
	var ee *exec.ExitError
	if errors.As(r.Err, &ee) && !ee.Exited() {
		r.Err = nil // ended by our own signal
	}
	return r
}

// runChild runs one child to completion.
func (h *harness) runChild(gomaxprocs int, deadline time.Duration, args ...string) *childRun {
	c, err := h.startChild(gomaxprocs, deadline, args...)
	if err != nil {
		return &childRun{Args: args, GOMAXPROCS: gomaxprocs, Err: err}
	}
	return c.wait()
}

// buildBinary compiles cmd/sandtable into the checkout's build directory and
// returns how long that took. After the first time it is an up-to-date check.
func (h *harness) buildBinary() (time.Duration, error) {
	if err := os.MkdirAll(filepath.Dir(h.binary), 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", h.binary, "./cmd/sandtable")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/sandtable: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// readMetrics parses a -metrics-out artifact.
func readMetrics(path string) (map[string]any, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// num reads a numeric field of a decoded artifact (0 when absent).
func num(m map[string]any, key string) float64 {
	switch v := m[key].(type) {
	case json.Number:
		f, _ := v.Float64()
		return f
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	return 0
}

// sub returns a nested object of a decoded artifact.
func sub(m map[string]any, key string) map[string]any {
	s, _ := m[key].(map[string]any)
	return s
}
