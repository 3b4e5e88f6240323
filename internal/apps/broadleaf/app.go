package broadleaf

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/orm"
	"weseer/internal/schema"
)

// Application-level errors (HTTP 4xx analogs).
var (
	ErrPasswordMismatch = errors.New("broadleaf: passwords do not match")
	ErrBadUsername      = errors.New("broadleaf: empty username")
	ErrNoCart           = errors.New("broadleaf: customer has no cart")
	ErrOutOfStock       = errors.New("broadleaf: not enough products")
)

// App is one deployment of the model application over its database.
type App struct {
	db      *minidb.DB
	Mapping *orm.Mapping
	// Fixes holds the enabled fixes by id (f1–f8, Expectations' Fix
	// column); with none, the application exhibits deadlocks d1–d13.
	Fixes map[string]bool

	// inventoryMu is Broadleaf's own application-level lock protecting
	// checkout's product-quantity updates (the ad-hoc synchronization of
	// Sec. V-D that WeSEER cannot see — a documented false-positive
	// source). It is always on; it is not one of the f1–f8 toggles.
	inventoryMu sync.Mutex

	// NumProducts is the size of the seeded catalog.
	NumProducts int
}

// New creates an application instance with the named fixes enabled
// ("all" for every one) and a fresh seeded database.
func New(fixes []string, cfg minidb.Config) (*App, error) {
	set, err := appkit.Fixes("broadleaf", appkit.FixIDs(Expectations()), fixes)
	if err != nil {
		return nil, err
	}
	a := &App{
		db:          minidb.Open(Schema(), cfg),
		Mapping:     NewMapping(),
		Fixes:       set,
		NumProducts: 32,
	}
	a.seed()
	return a, nil
}

// seed loads the product catalog with its per-product offer and
// fulfillment-option rows, through the database's fixture path. PRICE is
// DECIMAL but holds an integer datum, as an INSERT of an integer stores it.
func (a *App) seed() {
	products := make([]minidb.Row, a.NumProducts)
	counters := make([]minidb.Row, a.NumProducts) // ID and a zero USES or VIEWS
	for i := range products {
		id := minidb.I64(int64(i + 1))
		products[i] = minidb.Row{id, minidb.I64(1_000_000), minidb.I64(int64(11 + i))}
		counters[i] = minidb.Row{id, minidb.I64(0)}
	}
	err := a.db.Load("Product", products)
	for _, t := range []string{"Offer", "FulfillmentOption", "OfferStat", "FulfillmentStat"} {
		err = errors.Join(err, a.db.Load(t, counters))
	}
	if err != nil {
		panic(fmt.Sprintf("broadleaf: seeding failed: %v", err))
	}
	a.db.BumpID("Product", int64(a.NumProducts))
}

// session opens a fresh persistence context for one API call; a second
// one is the probe session a fix moves SELECT statements into when it
// takes them out of the original transaction (f3/f5/f7/f8).
func (a *App) session(e *concolic.Engine) *orm.Session {
	return orm.NewSession(a.Mapping, concolic.NewConn(e, a.db))
}

// selectorFor returns the session that existence-check SELECTs should run
// on: the main session (in-transaction — deadlock-prone) or a separate
// auto-committing probe session when the fix is enabled.
func selectorFor(fixOn bool, main, probe *orm.Session) *orm.Session {
	if fixOn {
		return probe
	}
	return main
}

// The registry's view: apps.App, apps.Sourcer, fixapply.Cataloged.
func (a *App) Name() string                     { return "broadleaf" }
func (a *App) Schema() *schema.Schema           { return a.db.Schema() }
func (a *App) DB() *minidb.DB                   { return a.db }
func (a *App) Classify(d *core.Deadlock) string { return Classify(d) }
func (a *App) SourceDir() string                { return filepath.Join("internal", "apps", "broadleaf") }
func (a *App) Catalog() []appkit.Expectation    { return Expectations() }
