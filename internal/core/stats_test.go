package core

import (
	"reflect"
	"testing"
	"time"
)

// TestStatsTableCoversStats is what makes "one field plus one row" safe:
// every number in Stats (Engine's included) is reached by exactly one
// StatsTable row, so a field added without its row — which add would not
// merge, /metrics not carry and -json not print — fails here.
func TestStatsTableCoversStats(t *testing.T) {
	var s Stats
	for i := range StatsTable {
		r := &StatsTable[i]
		if (r.num == nil) == (r.dur == nil) {
			t.Fatalf("row %d (%q): want exactly one of num and dur", i, r.JSON)
		}
		if (r.Metric == "") != (r.Help == "") {
			t.Errorf("row %d (%q): a metric and its help come together", i, r.JSON)
		}
		if r.dur != nil {
			*r.dur(&s) += time.Duration(i+1) * time.Millisecond
		} else {
			*r.num(&s) += i + 1
		}
	}
	// Each row added a distinct amount: a field no row reaches is still
	// zero, a field two rows reach holds a sum that is nobody's own.
	for i := range StatsTable {
		if got := StatsTable[i].JSONValue(&s); got != int64(i+1) {
			t.Errorf("row %d (%q) reads %d after writing %d: another row shares its field", i, StatsTable[i].JSON, got, i+1)
		}
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		// PrescreenSaved is the deprecated always-zero field, rowless on purpose.
		if v.IsZero() && path != ".PrescreenSaved" {
			t.Errorf("Stats%s has no StatsTable row", path)
		}
	}
	walk("", reflect.ValueOf(s))

	var sum Stats
	sum.add(&s)
	sum.add(&s)
	for i := range StatsTable {
		if got := StatsTable[i].JSONValue(&sum); got != int64(2*(i+1)) {
			t.Errorf("add: row %d (%q) = %d after adding %d twice", i, StatsTable[i].JSON, got, i+1)
		}
	}
}
