package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// daemon is a running `sandtable serve` child.
type daemon struct {
	proc *child
	url  string
}

// startDaemon starts the service on a port the kernel picks and waits until
// it answers /healthz.
func (h *harness) startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	proc, err := h.startChild(2, 10*time.Minute,
		"serve", "-addr", "127.0.0.1:0", "-artifacts", dir, "-slots", "1", "-workers", "2")
	if err != nil {
		return nil, err
	}
	line, ok := proc.waitLine("listening on http://", 20*time.Second)
	if !ok {
		r := proc.stop()
		return nil, fmt.Errorf("serve never announced its address: %v %s", r.Err, r.Stderr)
	}
	rest := line[strings.Index(line, "http://"):]
	d := &daemon{proc: proc, url: strings.Fields(rest)[0]}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			proc.stop()
			return nil, fmt.Errorf("serve at %s never became healthy: %v", d.url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobTrip is one job's client-side timeline.
type jobTrip struct {
	// Accepted is when the POST returned 202; Running when a status poll
	// first saw the job out of the queue; Done when a poll saw it terminal;
	// Fetched when the last artifact byte had arrived. All are measured from
	// the moment the POST was sent.
	Accepted, Running, Done, Fetched time.Duration
	// QueueWait is the server's own created→started interval.
	QueueWait time.Duration
	Result    map[string]any
	Artifacts int
	Bytes     int64
}

type jobStatus struct {
	ID      string         `json:"id"`
	State   string         `json:"state"`
	Created time.Time      `json:"created"`
	Started *time.Time     `json:"started"`
	Error   string         `json:"error"`
	Result  map[string]any `json:"result"`
}

// runJob submits spec, polls the job to a terminal state and downloads every
// artifact into out.
func (d *daemon) runJob(spec map[string]any, out string, timeout time.Duration) (*jobTrip, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := http.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st jobStatus
	err = decodeBody(resp, http.StatusAccepted, &st)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	trip := &jobTrip{Accepted: time.Since(start)}

	deadline := start.Add(timeout)
	for {
		resp, err := http.Get(d.url + "/v1/jobs/" + st.ID)
		if err != nil {
			return nil, err
		}
		if err := decodeBody(resp, http.StatusOK, &st); err != nil {
			return nil, fmt.Errorf("status: %w", err)
		}
		if trip.Running == 0 && st.State != "queued" {
			trip.Running = time.Since(start)
		}
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %s", st.ID, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	trip.Done = time.Since(start)
	trip.Result = st.Result
	if st.Started != nil {
		trip.QueueWait = st.Started.Sub(st.Created)
	}
	if st.State != "done" {
		return trip, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	var listing struct {
		Artifacts []string `json:"artifacts"`
	}
	resp, err = http.Get(d.url + "/v1/jobs/" + st.ID + "/artifacts/")
	if err != nil {
		return trip, err
	}
	if err := decodeBody(resp, http.StatusOK, &listing); err != nil {
		return trip, fmt.Errorf("artifact listing: %w", err)
	}
	for _, name := range listing.Artifacts {
		n, err := download(d.url+"/v1/jobs/"+st.ID+"/artifacts/"+name, filepath.Join(out, filepath.FromSlash(name)))
		if err != nil {
			return trip, fmt.Errorf("artifact %s: %w", name, err)
		}
		trip.Artifacts++
		trip.Bytes += n
	}
	trip.Fetched = time.Since(start)
	return trip, nil
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf))
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	return dec.Decode(v)
}

func download(url, path string) (int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}
