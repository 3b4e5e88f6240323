package apps

import (
	"fmt"
	"path/filepath"

	"weseer/internal/appgen"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/workload"
)

// wrapped adapts the hand-written model apps (whose exported surface
// predates the App interface) to the registry without touching their
// packages — their source files are themselves vet fixtures and report
// trigger frames, so line numbers there are load-bearing.
type wrapped struct {
	name     string
	scm      *schema.Schema
	db       *minidb.DB
	tests    []appkit.UnitTest
	classify func(*core.Deadlock) string
	flow     workload.Flow
	catalog  []appkit.Expectation
}

func (w *wrapped) Name() string                     { return w.name }
func (w *wrapped) Schema() *schema.Schema           { return w.scm }
func (w *wrapped) DB() *minidb.DB                   { return w.db }
func (w *wrapped) UnitTests() []appkit.UnitTest     { return w.tests }
func (w *wrapped) Classify(d *core.Deadlock) string { return w.classify(d) }
func (w *wrapped) SourceDir() string                { return filepath.Join("internal", "apps", w.name) }
func (w *wrapped) Flow() workload.Flow              { return w.flow }
func (w *wrapped) Catalog() []appkit.Expectation    { return w.catalog }

// registerModel registers a model app, whose spec takes no argument; open
// builds one configured instance (name aside).
func registerModel(name, summary string, open func(Options) (*wrapped, error)) {
	Register(name, Factory{Summary: summary, New: func(arg string, opt Options) (App, error) {
		if arg != "" {
			return nil, fmt.Errorf("%s takes no argument (got %q)", name, arg)
		}
		w, err := open(opt)
		if err != nil {
			return nil, err
		}
		w.name = name
		return w, nil
	}})
}

func init() {
	registerModel("broadleaf", "Broadleaf Commerce model (Table I APIs, deadlocks d1-d13)", func(opt Options) (*wrapped, error) {
		app, err := broadleaf.New(opt.Apply, opt.DB)
		if err != nil {
			return nil, err
		}
		return &wrapped{scm: broadleaf.Schema(), db: app.DB, tests: app.UnitTests(),
			classify: broadleaf.Classify, flow: app.Flow(), catalog: broadleaf.Expectations()}, nil
	})
	registerModel("shopizer", "Shopizer model (Table I APIs, deadlocks d14-d18)", func(opt Options) (*wrapped, error) {
		app, err := shopizer.New(opt.Apply, opt.DB)
		if err != nil {
			return nil, err
		}
		return &wrapped{scm: shopizer.Schema(), db: app.DB, tests: app.UnitTests(),
			classify: shopizer.Classify, flow: app.Flow(), catalog: shopizer.Expectations()}, nil
	})
	Register("gen", Factory{
		Summary: "synthetic corpus generator: gen:<seed>[,templates=N,modules=K,tables=T,rows=R,hot=P,nest=D,classes=f1:1+...|all|none]",
		New: func(arg string, opt Options) (App, error) {
			cfg, err := appgen.ParseSpec(arg)
			if err != nil {
				return nil, err
			}
			app, err := appgen.New(cfg, opt.DB, opt.Apply)
			if err != nil {
				return nil, err
			}
			return app, nil
		},
	})
}
