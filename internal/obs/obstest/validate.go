// Package obstest validates WeSEER's exported telemetry artifacts: the
// Chrome trace_event JSON and the Prometheus text exposition. verify.sh's trace-smoke step runs these (via the
// validatecmd helper) on a real workload's output, and the
// observability tests use them to assert exporter well-formedness
// without depending on external tooling. Tests that start goroutines
// check with CheckGoroutines that all of them have exited.
package obstest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TraceSummary describes a validated Chrome trace.
type TraceSummary struct {
	Events    int
	Threads   map[int]int    // tid -> event count
	NameCount map[string]int // span name -> count
}

// ValidateChromeTrace parses r as Chrome trace_event JSON and checks
// the invariants WeSEER's exporter guarantees: object form with a
// traceEvents array, every event a complete ("ph":"X") event with
// non-negative ts/dur and a name.
func ValidateChromeTrace(r io.Reader) (*TraceSummary, error) {
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   *int64            `json:"ts"`
			Dur  *int64            `json:"dur"`
			PID  *int              `json:"pid"`
			TID  *int              `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: not valid trace_event JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("trace: missing traceEvents array")
	}
	sum := &TraceSummary{Threads: map[int]int{}, NameCount: map[string]int{}}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d has no name", i)
		}
		if ev.Ph != "X" {
			return nil, fmt.Errorf("trace: event %d (%s): ph %q, want \"X\"", i, ev.Name, ev.Ph)
		}
		if ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil {
			return nil, fmt.Errorf("trace: event %d (%s): missing ts/dur/pid/tid", i, ev.Name)
		}
		if *ev.TS < 0 || *ev.Dur < 0 {
			return nil, fmt.Errorf("trace: event %d (%s): negative ts/dur", i, ev.Name)
		}
		sum.Events++
		sum.Threads[*ev.TID]++
		sum.NameCount[ev.Name]++
	}
	return sum, nil
}

// ValidatePrometheus parses r as Prometheus text exposition format
// (version 0.0.4) and returns the sample values keyed by metric name
// (with label set, if any). It enforces the structural rules WeSEER's
// exporter follows: every sample preceded by # HELP and # TYPE lines
// for its family, numeric values, and no duplicate samples.
func ValidatePrometheus(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	samples := map[string]float64{}
	typed := map[string]string{} // family -> counter|gauge|histogram
	helped := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 1 || fields[0] == "" {
				return nil, fmt.Errorf("prom: line %d: malformed HELP", lineNo)
			}
			helped[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("prom: line %d: malformed TYPE", lineNo)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("prom: line %d: unknown type %q", lineNo, fields[1])
			}
			typed[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comment
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: line %d: no value: %q", lineNo, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: bad value %q: %w", lineNo, valStr, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("prom: line %d: unterminated label set: %q", lineNo, line)
			}
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if !helped[family] || typed[family] == "" {
			return nil, fmt.Errorf("prom: line %d: sample %q without HELP/TYPE for family %q", lineNo, name, family)
		}
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("prom: line %d: duplicate sample %q", lineNo, key)
		}
		samples[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("prom: no samples")
	}
	return samples, nil
}
