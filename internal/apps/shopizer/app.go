package shopizer

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/orm"
	"weseer/internal/schema"
)

// Application-level errors.
var (
	ErrNoCart       = errors.New("shopizer: customer has no cart")
	ErrEmptyCart    = errors.New("shopizer: cart is empty")
	ErrBadUsername  = errors.New("shopizer: empty username")
	ErrOutOfStock   = errors.New("shopizer: not enough products")
	ErrUnknownInput = errors.New("shopizer: unknown product or customer")
)

// App is one deployment of the model application.
type App struct {
	db      *minidb.DB
	Mapping *orm.Mapping
	// Fixes holds the enabled fixes by id (f9–f11, Expectations' Fix
	// column); with none, the application exhibits deadlocks d14–d18.
	Fixes map[string]bool

	// productMu is fix f9's application-level locking: one lock per
	// product, always acquired in ascending product order and held across
	// the whole pricing/committing transaction, so transactions touching
	// common products execute serially while disjoint carts stay
	// parallel.
	productMu []sync.Mutex

	NumProducts int
}

// New creates an application instance with the named fixes enabled
// ("all" for every one) and a fresh seeded database.
func New(fixes []string, cfg minidb.Config) (*App, error) {
	set, err := appkit.Fixes("shopizer", appkit.FixIDs(Expectations()), fixes)
	if err != nil {
		return nil, err
	}
	a := &App{
		db:          minidb.Open(Schema(), cfg),
		Mapping:     NewMapping(),
		Fixes:       set,
		NumProducts: 32,
	}
	a.productMu = make([]sync.Mutex, a.NumProducts+1)
	a.seed()
	return a, nil
}

// seed loads the product catalog through the database's fixture path.
// PRICE is DECIMAL but holds an integer datum, as an INSERT of an integer
// stores it.
func (a *App) seed() {
	products := make([]minidb.Row, a.NumProducts)
	for i := range products {
		products[i] = minidb.Row{minidb.I64(int64(i + 1)), minidb.I64(1_000_000), minidb.I64(int64(6 + i)), minidb.I64(0), minidb.I64(0)}
	}
	if err := a.db.Load("Product", products); err != nil {
		panic(fmt.Sprintf("shopizer: seeding failed: %v", err))
	}
	a.db.BumpID("Product", int64(a.NumProducts))
}

func (a *App) session(e *concolic.Engine) *orm.Session {
	return orm.NewSession(a.Mapping, concolic.NewConn(e, a.db))
}

// serializeProducts takes fix f9's per-product locks (in ascending order,
// so the lock acquisition itself cannot deadlock) for the given product
// ids; the returned func releases them.
func (a *App) serializeProducts(ids []int64) func() {
	if !a.Fixes["f9"] {
		return func() {}
	}
	sorted := append([]int64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var locked []int64
	for _, id := range sorted {
		if id >= 1 && id <= int64(a.NumProducts) {
			a.productMu[id].Lock()
			locked = append(locked, id)
		}
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			a.productMu[locked[i]].Unlock()
		}
	}
}

// cartProductIDs lists the distinct product ids of the cart's items, in
// the requested order. Descending is Shopizer's natural iteration (most
// recently added first) — the inconsistent-order root cause of d17/d18.
func cartProductIDs(items []*orm.Entity, ascending bool) []int64 {
	seen := map[int64]bool{}
	var ids []int64
	for _, it := range items {
		id := it.Get("PRODUCT_ID").C.I
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ascending {
			return ids[i] < ids[j]
		}
		return ids[i] > ids[j]
	})
	return ids
}

// The registry's view: apps.App, apps.Sourcer, fixapply.Cataloged.
func (a *App) Name() string                     { return "shopizer" }
func (a *App) Schema() *schema.Schema           { return a.db.Schema() }
func (a *App) DB() *minidb.DB                   { return a.db }
func (a *App) Classify(d *core.Deadlock) string { return Classify(d) }
func (a *App) SourceDir() string                { return filepath.Join("internal", "apps", "shopizer") }
func (a *App) Catalog() []appkit.Expectation    { return Expectations() }
