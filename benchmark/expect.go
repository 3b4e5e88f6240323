package main

import (
	"fmt"
	"sort"
	"strings"
)

// Known answers, written by hand from the paper's Table II and from the
// generator's construction; none of them is copied from a run of the
// code under test.

// Table II: Broadleaf carries d1-d13 in 180 reports, Shopizer d14-d18 in
// 65. The two fine phases together discharge 326 cycle groups: 226 solver
// calls and 100 memo hits.
var (
	table2Apps      = []string{"broadleaf", "shopizer"}
	table2Deadlocks = map[string]int{"broadleaf": 180, "shopizer": 65}
	table2Classes   = map[string][]string{
		"broadleaf": {"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "d11", "d12", "d13"},
		"shopizer":  {"d14", "d15", "d16", "d17", "d18"},
	}
	table2Groups, table2SolverCalls, table2MemoHits = 326, 226, 100
)

// A generated corpus plants one instance of each of the eleven
// anti-pattern classes and nothing else that can deadlock. At seed 7 the
// planted instances fold into 20 reports with 20 distinct fingerprints;
// at other seeds only the planted-class rule is checked.
var (
	genClasses   = []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11"}
	genPinnedAt  = int64(7)
	genDeadlocks = 20
)

// eventsPerCycle is how many novel events one serve-cycle op ingests;
// the store must report exactly that many as stored.
const eventsPerCycle = 50

// checkClasses verifies that every wanted class was diagnosed and that
// nothing outside allowed was.
func checkClasses(got map[string]int, want, alsoAllowed []string) error {
	ok := map[string]bool{}
	var missing []string
	for _, c := range want {
		ok[c] = true
		if got[c] == 0 {
			missing = append(missing, c)
		}
	}
	for _, c := range alsoAllowed {
		ok[c] = true
	}
	var extra []string
	for c := range got {
		if !ok[c] {
			extra = append(extra, fmt.Sprintf("%q", c))
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("classes: missing [%s], unexpected [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return nil
}

// checkTable2 is the oracle of one table2 op: the two diagnoses in
// table2Apps order.
func checkTable2(outs []diagOut) error {
	var groups, calls, hits int
	for i, app := range table2Apps {
		o := outs[i]
		if o.Deadlocks != table2Deadlocks[app] {
			return fmt.Errorf("%s: %d deadlocks, want %d", app, o.Deadlocks, table2Deadlocks[app])
		}
		// Broadleaf's six application-lock reports on Checkout are the
		// paper's documented false positive, not a Table II entry.
		if err := checkClasses(o.Classes, table2Classes[app], []string{"fp-checkout-applock"}); err != nil {
			return fmt.Errorf("%s: %v", app, err)
		}
		if o.Stats.SolverUnknown != 0 {
			return fmt.Errorf("%s: %d inconclusive solver calls", app, o.Stats.SolverUnknown)
		}
		groups += o.Stats.GroupsSolved
		calls += o.Stats.SolverCalls
		hits += o.Stats.MemoHits
	}
	if groups != table2Groups || calls != table2SolverCalls || hits != table2MemoHits {
		return fmt.Errorf("funnel %d = %d + %d, want %d = %d + %d",
			groups, calls, hits, table2Groups, table2SolverCalls, table2MemoHits)
	}
	return nil
}

// checkGen is the oracle of one diagnosis of a generated corpus.
func checkGen(seed int64, o diagOut) error {
	if err := checkClasses(o.Classes, genClasses, nil); err != nil {
		return err
	}
	if o.Stats.SolverUnknown != 0 {
		return fmt.Errorf("%d inconclusive solver calls", o.Stats.SolverUnknown)
	}
	if seed == genPinnedAt && (o.Deadlocks != genDeadlocks || o.Stats.Fingerprints != genDeadlocks) {
		return fmt.Errorf("%d deadlocks, %d fingerprints, want %d of each",
			o.Deadlocks, o.Stats.Fingerprints, genDeadlocks)
	}
	return nil
}
