package staticlint

// Internal tests for the whole-program layer: loader behaviour, typed
// and CHA callee resolution, the receiver-name fallback for untyped
// sites, and transitive summaries over the SCC condensation.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const wholeprogDir = "testdata/src/wholeprog"

func loadCorpus(t *testing.T, dir string) *Program {
	t.Helper()
	p, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func factsOf(t *testing.T, p *Program, name string) *fnFacts {
	t.Helper()
	for _, f := range p.facts {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("no facts for function %q", name)
	return nil
}

// calleesAt resolves p's call graph and returns, by display name, what
// the call sites on file:line bind to.
func calleesAt(p *Program, file string, line int) []string {
	g := p.newCallGraph()
	g.resolve()
	var out []string
	for _, n := range g.nodes {
		for i, c := range n.facts.calls {
			if n.facts.file != file || c.line != line {
				continue
			}
			for _, id := range n.callees[i] {
				out = append(out, g.display(n, g.nodes[id]))
			}
		}
	}
	return out
}

func hasUnordered(fs []Finding, line int) bool {
	for _, f := range fs {
		if f.Kind == KindUnorderedLocks && f.Line == line {
			return true
		}
	}
	return false
}

func locksOf(f *fnFacts) []event {
	var out []event
	for _, ev := range f.events {
		if ev.kind == evLock {
			out = append(out, ev)
		}
	}
	return out
}

// TestWholeProgramSequences asserts the resolved transitive event
// sequences on the fixture corpus: the lock two hops away in another
// package, the lock behind an interface, and the lock around a
// recursive cycle all appear in the caller's events, with provenance
// chains naming the path and the leaf acquisition site.
func TestWholeProgramSequences(t *testing.T) {
	ps := loadCorpus(t, wholeprogDir)
	leaf := wholeprogDir + "/dao/dao.go"
	for _, tc := range []struct {
		fn       string
		path     []string
		leafLine int
	}{
		{"PriceAll", []string{"dao.LockProduct"}, 26},
		{"ProcessAll", []string{"store.DBStore.Save", "dao.LockProduct"}, 26},
		{"drainTree", []string{"dao.LockProduct"}, 26},
		{"drainKids", []string{"drainTree", "dao.LockProduct"}, 26},
	} {
		t.Run(tc.fn, func(t *testing.T) {
			f := factsOf(t, ps, tc.fn)
			locks := locksOf(f)
			if len(locks) != 1 {
				t.Fatalf("%s: want exactly 1 lock event, got %d: %+v", tc.fn, len(locks), locks)
			}
			ev := locks[0]
			if !ev.summary {
				t.Errorf("%s: lock event not marked as summary-inferred", tc.fn)
			}
			if !reflect.DeepEqual(ev.path, tc.path) {
				t.Errorf("%s: provenance path = %v, want %v", tc.fn, ev.path, tc.path)
			}
			if ev.leafFile != leaf || ev.leafLine != tc.leafLine {
				t.Errorf("%s: leaf = %s:%d, want %s:%d", tc.fn, ev.leafFile, ev.leafLine, leaf, tc.leafLine)
			}
		})
	}
	// The inlined statement template carries the leaf file too, so
	// canonical-order votes cite the real acquisition site.
	f := factsOf(t, ps, "PriceAll")
	if len(f.tmpls) != 1 || f.tmpls[0].kind != tmplSQL || f.tmpls[0].file != leaf {
		t.Errorf("PriceAll templates = %+v, want one inlined SQL template from %s", f.tmpls, leaf)
	}
}

// TestResolverDelta pins what only whole-program resolution binds: a
// cross-package call, an interface dispatch (CHA), a cross-package call
// from an unnamed-receiver method — none of which a per-package name
// match can see — and the lock reached around the recursive SCC, which
// takes the fixed-point summary.
func TestResolverDelta(t *testing.T) {
	cg := loadCorpus(t, wholeprogDir)
	for _, tc := range []struct {
		file   string
		line   int
		callee string
		why    string
	}{
		{wholeprogDir + "/handler/handler.go", 17, "dao.LockProduct", "cross-package call"},
		{wholeprogDir + "/handler/handler.go", 26, "store.DBStore.Save", "interface dispatch (CHA)"},
		{wholeprogDir + "/store/store.go", 28, "dao.LockProduct", "cross-package call from an unnamed-receiver method"},
	} {
		got := calleesAt(cg, tc.file, tc.line)
		found := false
		for _, name := range got {
			if name == tc.callee {
				found = true
			}
		}
		if !found {
			t.Errorf("%s:%d: call graph did not resolve %s (%s); got %v", tc.file, tc.line, tc.callee, tc.why, got)
		}
	}

	// Recursion: drainTree's own body holds no session call, so the lock
	// reaches drainKids only around the cycle.
	if got := len(locksOf(factsOf(t, cg, "drainKids"))); got != 1 {
		t.Errorf("whole-program drainKids lock events = %d, want 1", got)
	}

	// Finding level: all three loops are reported.
	cgFs := cg.Findings(nil)
	for _, line := range []int{16, 25, 39} {
		if !hasUnordered(cgFs, line) {
			t.Errorf("whole-program vet missing unordered-locks at handler.go:%d\nall:\n%v", line, cgFs)
		}
	}
}

// TestDiamondDedup pins satellite 2: two call paths to one acquisition
// contribute one event and one template, keyed on the leaf site.
func TestDiamondDedup(t *testing.T) {
	ps := loadCorpus(t, "testdata/src/diamond")
	top := factsOf(t, ps, "top")
	locks := locksOf(top)
	if len(locks) != 1 {
		t.Fatalf("diamond top: want 1 lock event after dedup, got %d: %+v", len(locks), locks)
	}
	want := []string{"left", "lockShared"}
	if !reflect.DeepEqual(locks[0].path, want) {
		t.Errorf("diamond top: path = %v, want %v (first call path wins deterministically)", locks[0].path, want)
	}
	if len(top.tmpls) != 1 {
		t.Errorf("diamond top: want 1 template after dedup, got %d: %+v", len(top.tmpls), top.tmpls)
	}
}

// TestRepeatedCalleeAcrossContexts pins the context-scoped splice
// dedup: a lock-taking callee invoked before a loop AND per element
// inside two separate loops keeps one lock event in each context, so
// both loops are flagged. Two calls from the same (top-level) context
// still collapse, diamond-style.
func TestRepeatedCalleeAcrossContexts(t *testing.T) {
	ps := loadCorpus(t, "testdata/src/repeat")
	t.Run("wholeprog", func(t *testing.T) {
		fs := ps.Findings(nil)
		for _, line := range []int{22, 25} {
			if !hasUnordered(fs, line) {
				t.Errorf("missing unordered-locks at repeat.go:%d; findings:\n%v", line, fs)
			}
		}
	})
	h := factsOf(t, ps, "Handler")
	if got := len(locksOf(h)); got != 3 {
		t.Errorf("Handler lock events = %d, want 3 (pre-loop + one per loop): %+v", got, locksOf(h))
	}
	if got := len(h.tmpls); got != 3 {
		t.Errorf("Handler templates = %d, want 3 (the in-loop sends execute per element)", got)
	}
	if got := len(locksOf(factsOf(t, ps, "twice"))); got != 1 {
		t.Errorf("twice lock events = %d, want 1 (same-context repeats still dedupe)", got)
	}
}

// TestSessionSurfaceNotAnalyzed: a tree that contains the ORM/session
// type itself must not report the session-method bodies as app APIs
// (parseTarget's sessionMethods skip).
func TestSessionSurfaceNotAnalyzed(t *testing.T) {
	for _, f := range loadCorpus(t, wholeprogDir).facts {
		if sessionMethods[f.name] {
			t.Errorf("session method %q analyzed as an app API", f.name)
		}
	}
}

// TestLoadTreeCacheInvalidation: nothing outlives a Load, so a re-vet
// after a source edit in the same process sees the new code — the first
// thing any cache put in front of the loader would have to get right.
func TestLoadTreeCacheInvalidation(t *testing.T) {
	dir := t.TempDir()
	writeAll := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeAll("go.mod", "module cachetest\n\ngo 1.22\n")
	writeAll("app.go", `package app

type session struct{}

func (s *session) Exec(sql string, args ...any) {}

func lockOne(s *session, id int64) {
	s.Exec(`+"`UPDATE Product SET POPULARITY = ? WHERE ID = ?`"+`, id)
}

func Handler(s *session, ids []int64) {
	for _, id := range ids {
		lockOne(s, id)
	}
}
`)
	prog, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fs := prog.Findings(nil); len(fs) != 1 || fs[0].Kind != KindUnorderedLocks {
		t.Fatalf("initial vet: want one unordered-locks finding, got %v", fs)
	}
	// The fix: sort before locking (the loop suppression kicks in).
	writeAll("app.go", `package app

import "sort"

type session struct{}

func (s *session) Exec(sql string, args ...any) {}

func lockOne(s *session, id int64) {
	s.Exec(`+"`UPDATE Product SET POPULARITY = ? WHERE ID = ?`"+`, id)
}

func Handler(s *session, ids []int64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		lockOne(s, id)
	}
}
`)
	if prog, err = Load(dir); err != nil {
		t.Fatal(err)
	}
	if fs := prog.Findings(nil); len(fs) != 0 {
		t.Fatalf("re-vet after edit still reports stale findings: %v", fs)
	}
}

// TestReceiverFix pins receiver extraction on the recv fixture: a
// multi-name receiver list binds through its first name (the hazard in
// useMany is reported) and an unnamed-receiver method does not capture
// plain calls of the same name (freeCall stays clean). go/types happens
// to type useMany's site, so the same two bindings are also asked of
// heuristicSite — the rule recvIdent exists for — directly.
func TestReceiverFix(t *testing.T) {
	p := loadCorpus(t, "testdata/src/recv")
	fs := p.Findings(nil)
	found := false
	for _, f := range fs {
		if f.Kind == KindUnorderedLocks && f.Func == "useMany" && f.Line == 29 {
			found = true
		}
		if f.Func == "freeCall" {
			t.Errorf("false positive on freeCall (plain call bound to an unnamed-receiver method): %s", f)
		}
	}
	if !found {
		t.Errorf("multi-name receiver method not resolved; findings:\n%v", fs)
	}

	g := p.newCallGraph()
	for _, n := range g.nodes {
		for _, c := range n.facts.calls {
			var got []string
			for _, id := range g.heuristicSite(n, c) {
				got = append(got, g.nodes[id].name)
			}
			want := map[string][]string{"useMany": {"lockMany"}}[n.name]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("heuristicSite(%s -> %s) = %v, want %v", n.name, c.name, got, want)
			}
		}
	}
}

// TestTxnBoundaryNotInlined: calls to functions that open their own
// transaction (Begin/Transactional) are boundaries — the workload
// drivers that invoke handler APIs in sequence must not merge every
// handler's statements into one phantom transaction template.
func TestTxnBoundaryNotInlined(t *testing.T) {
	ps := loadCorpus(t, "../apps/shopizer")
	for _, sh := range ps.Shapes(nil) {
		if sh.API == "Flow" || sh.API == "UnitTests" {
			t.Errorf("driver %s has a transaction shape (%d stmts): txn-opening callees must not inline", sh.API, len(sh.Stmts))
		}
	}
	// The boundary events themselves are recorded for the opener.
	checkout := factsOf(t, ps, "Checkout")
	var kinds []eventKind
	for _, ev := range checkout.events {
		if ev.kind == evBegin || ev.kind == evCommit {
			kinds = append(kinds, ev.kind)
		}
	}
	if len(kinds) < 2 || kinds[0] != evBegin || kinds[len(kinds)-1] != evCommit {
		t.Errorf("Checkout txn boundary events = %v, want evBegin ... evCommit", kinds)
	}
}

// Loader edge cases.
func TestLoadTreeErrors(t *testing.T) {
	if _, err := Load("testdata/src/definitely-missing"); err == nil {
		t.Error("Load on a missing directory must fail")
	}
	if _, err := Load("testdata/golden/f2.txt"); err == nil {
		t.Error("Load on a file must fail")
	}
}

func TestModulePath(t *testing.T) {
	for in, want := range map[string]string{
		"module wholeprog\n\ngo 1.22\n":     "wholeprog",
		"// a comment\nmodule  foo/bar\n":   "foo/bar",
		"module \"quoted/path\"\ngo 1.22\n": "quoted/path",
		"go 1.22\n":                         "",
	} {
		if got := modulePath([]byte(in)); got != want {
			t.Errorf("modulePath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLoadTreeModuleDiscovery(t *testing.T) {
	prog, err := Load(wholeprogDir)
	if err != nil {
		t.Fatal(err)
	}
	if prog.modPath != "wholeprog" {
		t.Errorf("modPath = %q, want wholeprog (nearest go.mod wins)", prog.modPath)
	}
	if len(prog.targets) != 3 {
		t.Errorf("targets = %d, want 3 (dao, handler, store)", len(prog.targets))
	}
	// The lint fixtures sit under the repo module: their import paths
	// are derived from the repo go.mod, and stdlib imports ("sort" in
	// the clean fixture) resolve to empty placeholder packages without
	// failing the load.
	prog2, err := Load("testdata/src/clean")
	if err != nil {
		t.Fatal(err)
	}
	if prog2.modPath != "weseer" {
		t.Errorf("clean fixture modPath = %q, want weseer", prog2.modPath)
	}
	if !strings.HasPrefix(prog2.targets[0].path, "weseer/") {
		t.Errorf("clean fixture import path = %q, want weseer/... prefix", prog2.targets[0].path)
	}
	if dep, ok := prog2.deps["sort"]; !ok || dep == nil || dep.Scope().Len() != 0 {
		t.Errorf("stdlib import must resolve to an empty placeholder, got %v", prog2.deps)
	}
}
