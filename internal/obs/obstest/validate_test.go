package obstest

import (
	"strings"
	"testing"
)

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       "nope",
		"no traceEvents": `{"displayTimeUnit":"ms"}`,
		"bad phase":      `{"traceEvents":[{"name":"x","cat":"c","ph":"B","ts":1,"dur":1,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`,
		"missing ts":     `{"traceEvents":[{"name":"x","cat":"c","ph":"X","dur":1,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`,
		"negative dur":   `{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1,"dur":-1,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`,
		"unnamed event":  `{"traceEvents":[{"name":"","cat":"c","ph":"X","ts":1,"dur":1,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`,
	}
	for label, doc := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	good := `{"traceEvents":[{"name":"solve","cat":"weseer","ph":"X","ts":10,"dur":5,"pid":1,"tid":2,"args":{"status":"SAT"}}],"displayTimeUnit":"ms"}`
	sum, err := ValidateChromeTrace(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 1 || sum.Threads[2] != 1 || sum.NameCount["solve"] != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestValidatePrometheus(t *testing.T) {
	good := `# HELP weseer_x_total things
# TYPE weseer_x_total counter
weseer_x_total 3
# HELP weseer_lat_seconds latency
# TYPE weseer_lat_seconds histogram
weseer_lat_seconds_bucket{le="0.1"} 1
weseer_lat_seconds_bucket{le="+Inf"} 2
weseer_lat_seconds_sum 0.35
weseer_lat_seconds_count 2
`
	samples, err := ValidatePrometheus(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if samples["weseer_x_total"] != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if samples[`weseer_lat_seconds_bucket{le="+Inf"}`] != 2 {
		t.Fatalf("samples = %v", samples)
	}

	for label, doc := range map[string]string{
		"no samples":    "# HELP a b\n# TYPE a counter\n",
		"untyped":       "weseer_x_total 3\n",
		"no help":       "# TYPE weseer_x_total counter\nweseer_x_total 3\n",
		"bad value":     "# HELP a b\n# TYPE a counter\na zero\n",
		"dup sample":    "# HELP a b\n# TYPE a counter\na 1\na 2\n",
		"unknown type":  "# HELP a b\n# TYPE a widget\na 1\n",
		"dangling line": "# HELP a b\n# TYPE a counter\na\n",
	} {
		if _, err := ValidatePrometheus(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}
