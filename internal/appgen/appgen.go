// Package appgen generates complete synthetic applications — schema,
// seeded database, transaction templates, and a deadlock classifier —
// from a small seeded configuration. A generated app exposes the same
// surface as the hand-written model apps (broadleaf, shopizer), so its
// corpus flows through concolic collection, enumeration, and the solver
// unchanged. Generation is fully deterministic: the same spec yields
// byte-identical traces and a byte-identical analysis report.
//
// The corpus is built so that its set of satisfiable deadlock cycles is
// exactly the planted anti-pattern instances (classes f1–f11 of the
// paper's Table II fix catalog): filler templates contribute realistic
// lock traffic and genuinely-UNSAT solver work but no diagnosable
// deadlock (see the opKind comment in templates.go for the argument).
//
// Every template, filler or planted, is one genTemplate: a name, its
// inputs, and a Run over one concolic value per input. UnitTests runs
// each at its collection values with the inputs symbolic; Flow runs each
// at values drawn from the inputs' ranges.
package appgen

import (
	"fmt"
	"slices"
	"strconv"

	"weseer/internal/apps/appkit"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/orm"
	"weseer/internal/schema"
)

// App is one generated application instance.
type App struct {
	cfg     Config
	spec    string
	scm     *schema.Schema
	db      *minidb.DB
	mapping *orm.Mapping
	classOf map[string]string // planted table → class
	fixed   map[string]bool   // planted classes compiled as their fixed variant
	// templates are the fillers in generation order, then each planted
	// instance's templates.
	templates []genTemplate
}

// New generates the application for cfg (normalized first) with a fresh
// seeded database. fixed names the planted classes ("all" for every one)
// to compile as their mechanically-fixed template variants (see
// plantedTemplates): schema, seeding, template names and symbolic input
// names are unchanged — only the template bodies differ — so fixed and
// unfixed corpora are directly comparable. A class is planted when the
// config gives it at least one instance.
func New(cfg Config, dbCfg minidb.Config, fixed []string) (*App, error) {
	cfg = cfg.Normalize()
	var planted []string
	for _, cc := range cfg.Classes {
		if cc.N > 0 {
			planted = append(planted, cc.Class)
		}
	}
	a := &App{cfg: cfg, spec: cfg.Spec(), scm: schema.New(), classOf: map[string]string{}}
	var err error
	if a.fixed, err = appkit.Fixes(a.Name(), planted, fixed); err != nil {
		return nil, err
	}
	r := newRNG(cfg.Seed)
	a.templates = a.fillers(r, buildModules(cfg, r, a.scm), stmtTexts{})
	for _, cc := range cfg.Classes {
		for i := 0; i < cc.N; i++ {
			inst := plant(a.scm, cc.Class, i)
			for _, tab := range inst.Tables {
				a.classOf[tab] = cc.Class
			}
			a.templates = append(a.templates, a.plantedTemplates(inst, a.fixed[cc.Class])...)
		}
	}
	a.db = minidb.Open(a.scm, dbCfg)
	a.mapping = orm.NewMapping(a.scm)
	a.seed()
	return a, nil
}

// seed loads cfg.Rows rows into every table through the database's
// fixture path (minidb.Load): ID = 1..Rows, every other INT or DECIMAL
// column mirroring the id as an integer datum (so child OWNER_IDs line up
// with parent ids), VARCHARs a short tag.
func (a *App) seed() {
	tags := make([]minidb.Datum, a.cfg.Rows+1) // row i's VARCHAR tag, the same in every table
	for i := range tags {
		tags[i] = minidb.Str("r" + strconv.Itoa(i))
	}
	var cells minidb.Row // the rows' datums, row after row; Load keeps none
	rows := make([]minidb.Row, a.cfg.Rows)
	for _, t := range a.scm.Tables() {
		w := len(t.Columns)
		cells = slices.Grow(cells[:0], w*len(rows))
		for i := range rows {
			for _, c := range t.Columns {
				d := minidb.I64(int64(i + 1))
				if c.Type == schema.Varchar {
					d = tags[i+1]
				}
				cells = append(cells, d)
			}
			rows[i] = cells[i*w : (i+1)*w]
		}
		if err := a.db.Load(t.Name, rows); err != nil {
			panic(fmt.Sprintf("appgen: seeding failed: %v", err))
		}
		a.db.BumpID(t.Name, int64(a.cfg.Rows))
	}
}

// Name returns the registry name, "gen:" + the canonical spec.
func (a *App) Name() string { return "gen:" + a.spec }

// Config returns the normalized generation config.
func (a *App) Config() Config { return a.cfg }

// Schema returns the generated schema.
func (a *App) Schema() *schema.Schema { return a.scm }

// DB returns the seeded database.
func (a *App) DB() *minidb.DB { return a.db }

// UnitTests returns one unit test per transaction template: fillers
// first (generation order), then the planted anti-pattern templates.
func (a *App) UnitTests() []appkit.UnitTest {
	out := make([]appkit.UnitTest, len(a.templates))
	for i, g := range a.templates {
		out[i] = g.unitTest()
	}
	return out
}

// Classify maps a diagnosed deadlock to the planted anti-pattern class
// whose dedicated tables it cycles over, or "" for a cycle on filler
// tables — which the generator's construction argues cannot be
// satisfiable, so "" flags a generator bug.
func (a *App) Classify(d *core.Deadlock) string {
	if cl, ok := a.classOf[d.Cycle.Table1]; ok {
		return cl
	}
	if cl, ok := a.classOf[d.Cycle.Table2]; ok {
		return cl
	}
	return ""
}
