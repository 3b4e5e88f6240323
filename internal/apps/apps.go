// Package apps is the application registry: every workload WeSEER can
// diagnose — the hand-written model apps (broadleaf, shopizer) and the
// synthetic generated corpora (appgen) — is opened here by name, through
// one App interface. The CLIs resolve workloads exclusively through Open,
// so adding an application family is one case in Open and one line in
// its list, never command code.
package apps

import (
	"fmt"
	"strings"

	"weseer/internal/appgen"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/workload"
)

// App is the surface the diagnosis pipeline needs from an application:
// its schema, a seeded live database, the API unit tests that produce
// traces, the load clients' flow over the same APIs, and a classifier
// mapping diagnosed deadlocks onto the app's catalog (Table II entries for
// the model apps, planted f-classes for generated corpora; "" =
// unclassified).
type App interface {
	Name() string
	Schema() *schema.Schema
	DB() *minidb.DB
	UnitTests() []appkit.UnitTest
	Workloader
	Classify(d *core.Deadlock) string
}

// Sourcer is optionally implemented by apps whose transaction templates
// exist as Go source on disk; `weseer vet` uses it for its default
// directories. Generated apps have no source, so they don't implement
// it.
type Sourcer interface {
	SourceDir() string
}

// Workloader is the part of App that drives the Fig. 10/11
// concurrent-client harness (internal/workload).
type Workloader interface {
	Flow() workload.Flow
}

// Options configure Open.
type Options struct {
	// Apply enables exactly the named fixes: ids from the model app's
	// Table II catalog (f1–f8 Broadleaf, f9–f11 Shopizer) or a generated
	// corpus's planted classes, and "all" for every one. The app's own
	// constructor validates them; Open passes them through.
	Apply []string
	// DB overrides the database configuration (zero value = app
	// defaults).
	DB minidb.Config
}

// families lists the application families Open knows, sorted, with the
// line Usage prints for each.
var families = []struct{ name, summary string }{
	{"broadleaf", "Broadleaf Commerce model (Table I APIs, deadlocks d1-d13)"},
	{"gen", "synthetic corpus generator: gen:<seed>[,templates=N,modules=K,tables=T,rows=R,hot=P,nest=D,classes=f1:1+...|all|none]"},
	{"shopizer", "Shopizer model (Table I APIs, deadlocks d14-d18)"},
}

// Open builds the application named by spec: a model app's bare name
// ("broadleaf") or "gen:" and a corpus spec ("gen:7,templates=500").
func Open(spec string, opt Options) (App, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "broadleaf", "shopizer":
		if arg != "" {
			return nil, fmt.Errorf("%s takes no argument (got %q)", name, arg)
		}
		if name == "broadleaf" {
			return opened(broadleaf.New(opt.Apply, opt.DB))
		}
		return opened(shopizer.New(opt.Apply, opt.DB))
	case "gen":
		cfg, err := appgen.ParseSpec(arg)
		if err != nil {
			return nil, err
		}
		return opened(appgen.New(cfg, opt.DB, opt.Apply))
	}
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return nil, fmt.Errorf("unknown app %q (known: %s)", spec, strings.Join(names, ", "))
}

// opened is a constructor's result as an App: a nil App with the error, not
// a typed nil pointer.
func opened[A App](app A, err error) (App, error) {
	if err != nil {
		return nil, err
	}
	return app, nil
}

// Usage renders one line per application family for CLI help text,
// indented by prefix.
func Usage(prefix string) string {
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "%s%-12s %s\n", prefix, f.name, f.summary)
	}
	return b.String()
}
