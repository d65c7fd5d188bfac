package engine

import (
	"fmt"
	"regexp"
	"strconv"

	"github.com/sandtable-go/sandtable/internal/trace"
)

// Observe renders node i's state variables via the process's observation
// API (the paper's first state-retrieval method, §A.4). Crashed nodes
// report only their status.
func (c *Cluster) Observe(i int) (map[string]string, error) {
	if err := c.guard(i); err != nil {
		return nil, err
	}
	if !c.up[i] {
		return map[string]string{"status": "crashed"}, nil
	}
	vars := c.procs[i].Observe()
	if vars == nil {
		vars = make(map[string]string)
	}
	vars["status"] = "up"
	return vars, nil
}

// ObserveAll collects every node's variables under "var[i]" keys, plus the
// network environment (message counts per channel) which the engine manages
// itself and can compare directly (§3.2). It is ObserveInto a fresh map.
func (c *Cluster) ObserveAll() (map[string]string, error) {
	out := make(map[string]string)
	c.ObserveInto(out)
	return out, nil
}

// ObserveInto clears m and fills it with what ObserveAll returns: node i's
// variable v under "v[i]" (with "status[i]" "up" or "crashed"; a crashed
// node reports nothing else) and the network variables. Conformance
// checking observes after every replayed event, so a caller keeps one map
// for a whole replay, and the keys come from the cluster's tables: a step
// renders no key and allocates no map of its own.
func (c *Cluster) ObserveInto(m map[string]string) {
	clear(m)
	for i := 0; i < c.cfg.Nodes; i++ {
		if !c.up[i] {
			m[c.statusKeys[i]] = "crashed"
			continue
		}
		for k, v := range c.procs[i].Observe() {
			keys, ok := c.varKeys[k]
			if !ok {
				keys = trace.NodeKeys(k, c.cfg.Nodes)
				c.varKeys[k] = keys
			}
			m[keys[i]] = v
		}
		m[c.statusKeys[i]] = "up"
	}
	c.networkVars(m)
}

// NetworkVars renders the proxy state: per-channel buffered message counts.
func (c *Cluster) NetworkVars() map[string]string {
	out := make(map[string]string, c.cfg.Nodes*(c.cfg.Nodes-1))
	c.networkVars(out)
	return out
}

func (c *Cluster) networkVars(out map[string]string) {
	for src := 0; src < c.cfg.Nodes; src++ {
		keys := c.netKeys[src]
		for dst := 0; dst < c.cfg.Nodes; dst++ {
			if src == dst {
				continue
			}
			out[keys[dst]] = strconv.Itoa(c.net.Len(src, dst))
		}
	}
}

// LogObserver extracts state variables from captured debug logs using
// user-defined regular expressions — the paper's second state-retrieval
// method (§A.1, §A.4), used when a system offers no query API. Each pattern
// must contain exactly one capture group; the last match in the log wins.
type LogObserver struct {
	patterns map[string]*regexp.Regexp
}

// NewLogObserver compiles the variable→pattern table.
func NewLogObserver(patterns map[string]string) (*LogObserver, error) {
	o := &LogObserver{patterns: make(map[string]*regexp.Regexp, len(patterns))}
	for name, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("log observer: pattern for %s: %w", name, err)
		}
		if re.NumSubexp() != 1 {
			return nil, fmt.Errorf("log observer: pattern for %s must have exactly one capture group", name)
		}
		o.patterns[name] = re
	}
	return o, nil
}

// Extract scans the lines and returns the last captured value per variable.
func (o *LogObserver) Extract(lines []string) map[string]string {
	out := make(map[string]string)
	for _, line := range lines {
		for name, re := range o.patterns {
			if m := re.FindStringSubmatch(line); m != nil {
				out[name] = m[1]
			}
		}
	}
	return out
}

// ObserveLogs applies a log observer to node i's captured log.
func (c *Cluster) ObserveLogs(i int, o *LogObserver) (map[string]string, error) {
	if err := c.guard(i); err != nil {
		return nil, err
	}
	return o.Extract(c.logs[i].Lines()), nil
}
