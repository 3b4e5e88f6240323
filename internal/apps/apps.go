// Package apps is the application registry: every workload WeSEER can
// diagnose — the hand-written model apps (broadleaf, shopizer) and the
// synthetic generated corpora (appgen) — registers here under a name and
// is opened through one App interface. The CLIs resolve workloads
// exclusively through this registry, so adding an application (or an
// application generator) never touches command code.
package apps

import (
	"fmt"
	"sort"
	"strings"

	"weseer/internal/apps/appkit"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/workload"
)

// App is the surface the diagnosis pipeline needs from an application:
// its schema, a seeded live database, the API unit tests that produce
// traces, and a classifier mapping diagnosed deadlocks onto the app's
// catalog (Table II entries for the model apps, planted f-classes for
// generated corpora; "" = unclassified).
type App interface {
	Name() string
	Schema() *schema.Schema
	DB() *minidb.DB
	UnitTests() []appkit.UnitTest
	Classify(d *core.Deadlock) string
}

// Sourcer is optionally implemented by apps whose transaction templates
// exist as Go source on disk; `weseer vet` uses it for its default
// directories. Generated apps have no source, so they don't implement
// it.
type Sourcer interface {
	SourceDir() string
}

// Workloader is implemented by apps that can drive the Fig. 10/11
// concurrent-client harness (internal/workload).
type Workloader interface {
	Flow() workload.Flow
}

// Options configure Open.
type Options struct {
	// Apply enables exactly the named fixes: ids from the model app's
	// Table II catalog (f1–f8 Broadleaf, f9–f11 Shopizer) or a generated
	// corpus's planted classes, and "all" for every one. The app's own
	// constructor validates them; the registry passes them through.
	Apply []string
	// DB overrides the database configuration (zero value = app
	// defaults).
	DB minidb.Config
}

// Factory builds instances of one registered application family.
type Factory struct {
	// Summary is the one-line description shown in usage listings.
	Summary string
	// New builds an instance. arg is the text after "name:" in the open
	// spec ("" when absent).
	New func(arg string, opt Options) (App, error)
}

var registry = map[string]Factory{}

// Register adds a factory under name. It panics on duplicates: factories
// register from init functions, so a collision is a programming error.
func Register(name string, f Factory) {
	if name == "" || strings.Contains(name, ":") {
		panic("apps: invalid registry name " + name)
	}
	if _, dup := registry[name]; dup {
		panic("apps: duplicate registration of " + name)
	}
	if f.New == nil {
		panic("apps: factory for " + name + " has no New func")
	}
	registry[name] = f
}

// Open builds the application named by spec, which is either a bare
// registry name ("broadleaf") or name:argument ("gen:7,templates=500").
func Open(spec string, opt Options) (App, error) {
	name, arg, _ := strings.Cut(spec, ":")
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown app %q (known: %s)", spec, strings.Join(Names(), ", "))
	}
	return f.New(arg, opt)
}

// Names lists the registered names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Usage renders one line per registered application for CLI help text,
// indented by prefix.
func Usage(prefix string) string {
	var b strings.Builder
	for _, name := range Names() {
		fmt.Fprintf(&b, "%s%-12s %s\n", prefix, name, registry[name].Summary)
	}
	return b.String()
}
