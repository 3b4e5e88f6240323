package trace_test

import (
	"encoding/json"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/trace"
)

// BenchmarkDecodeTraces reads the gen:7,templates=96 trace batch, the one
// the serve-cycle benchmark posts to /ingest, through Decode's single pass,
// through json.Unmarshal's element-by-element UnmarshalJSON, and through
// the reflective decoder Decode replaced (Reflective), so one run prints
// the speed-up and the allocation drop.
func BenchmarkDecodeTraces(b *testing.B) {
	app, err := apps.Open("gen:7,templates=96", apps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(traces)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func() error
	}{
		{"Decode", func() error { _, err := trace.Decode(data); return err }},
		{"Unmarshal", func() error { var trs []*trace.Trace; return json.Unmarshal(data, &trs) }},
		{"Reflective", func() error { _, err := trace.OracleDecode(data); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
