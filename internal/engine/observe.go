package engine

import (
	"fmt"
	"regexp"

	"github.com/sandtable-go/sandtable/internal/trace"
)

// Observe renders node i's state variables via the process's observation
// API (the paper's first state-retrieval method, §A.4), keyed by field name.
// Crashed nodes report only their status.
func (c *Cluster) Observe(i int) (map[string]string, error) {
	if err := c.guard(i); err != nil {
		return nil, err
	}
	if !c.Up(i) {
		return map[string]string{"status": "crashed"}, nil
	}
	buf := c.observeNode(i)
	vars := make(map[string]string, len(buf)+1)
	for f, v := range buf {
		if v != trace.Absent {
			vars[c.fields[f]] = v
		}
	}
	vars["status"] = "up"
	return vars, nil
}

// observeNode fills the cluster's observation buffer from up node i.
func (c *Cluster) observeNode(i int) []string {
	buf := c.obsBuf
	for f := range buf {
		buf[f] = trace.Absent
	}
	c.procs[i].Observe(buf)
	return buf
}

// Fields lists the per-node variables the cluster renders: "status" ("up"
// or "crashed"), then the processes' Fields.
func (c *Cluster) Fields() []string { return c.schema.Fields() }

// Schema is the cluster's own slot vocabulary: Fields per node, then the
// network variables.
func (c *Cluster) Schema() *trace.Schema { return c.schema }

// ObserveSlots renders the implementation state into dst, a slot vector of
// schema s (of the cluster's arity): node i's variable v into slot v[i] —
// "status[i]" is "up" or "crashed", and a crashed node's other variables are
// Absent — and the network environment (message counts per channel, by
// spec.Net.NetSlots, the renderer a spec state's channels use), which the
// engine manages itself and can compare directly (§3.2). A field s
// lacks is not rendered; slots that are not the cluster's are left as they
// are. Conformance checking observes after every replayed event, so the
// field-to-slot table is built once per cluster and schema, and a step
// builds no map.
func (c *Cluster) ObserveSlots(s *trace.Schema, dst []string) {
	if c.slotSchema != s {
		c.slotSchema = s
		c.slotOf = c.slotOf[:0]
		for _, f := range c.schema.Fields() {
			c.slotOf = append(c.slotOf, s.Field(f))
		}
	}
	status, fields := c.slotOf[0], c.slotOf[1:]
	for i := 0; i < c.cfg.Nodes; i++ {
		if !c.Up(i) {
			if status >= 0 {
				dst[status+i] = "crashed"
			}
			for _, base := range fields {
				if base >= 0 {
					dst[base+i] = trace.Absent
				}
			}
			continue
		}
		buf := c.observeNode(i)
		for f, base := range fields {
			if base >= 0 {
				dst[base+i] = buf[f]
			}
		}
		if status >= 0 {
			dst[status+i] = "up"
		}
	}
	c.net.NetSlots(dst, s)
}

// ObserveAll is the map ObserveSlots renders in the cluster's own schema:
// every node's variables under "var[i]" keys, plus the network variables.
func (c *Cluster) ObserveAll() (map[string]string, error) {
	dst := c.schema.Clear(nil)
	c.ObserveSlots(c.schema, dst)
	return c.schema.Map(dst), nil
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
