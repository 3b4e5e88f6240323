package shopizer

import (
	"weseer/internal/concolic"
	"weseer/internal/orm"
)

// Register creates a customer account and returns the new customer's id.
func (a *App) Register(e *concolic.Engine, username, email concolic.Value) (int64, error) {
	s := a.session(e)
	var id int64
	err := orm.Guard(func() error {
		if e.If(e.Eq(username, concolic.Str(""))) {
			return ErrBadUsername
		}
		return s.Transactional(func() error {
			id = a.db.NextID("Customer")
			c := s.NewEntity("Customer")
			s.Set(c, "ID", concolic.Int(id))
			s.Set(c, "USERNAME", username)
			s.Set(c, "EMAIL", email)
			s.Persist(c)
			return nil
		})
	})
	return id, err
}

// Add puts a product into the customer's cart. The product row is read
// before the transaction (cached), so the in-transaction bookkeeping is a
// direct UPDATE of the shared sold-counter — one of the accesses the
// checkout commit phase can collide with in d17.
func (a *App) Add(e *concolic.Engine, customerID, productID concolic.Value) error {
	s := a.session(e)
	return orm.Guard(func() error {
		product := s.Find("Product", productID)
		if product == nil {
			return ErrUnknownInput
		}
		// Controller-level reads, outside the transaction (the cart and
		// existing-item lookups auto-commit, releasing their locks).
		carts := s.Query(`SELECT * FROM Cart c WHERE c.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "c")
		var items []*orm.Entity
		if len(carts) > 0 {
			items = s.Query(`SELECT * FROM CartItem ci WHERE ci.CART_ID = ? AND ci.PRODUCT_ID = ?`,
				[]concolic.Value{carts[0].Get("ID"), productID}, "ci")
		}

		return s.Transactional(func() error {
			var cart *orm.Entity
			if len(carts) == 0 {
				// Add1 path: first add creates the cart.
				cart = s.NewEntity("Cart")
				s.Set(cart, "ID", concolic.Int(a.db.NextID("Cart")))
				s.Set(cart, "CUSTOMER_ID", customerID)
				s.Persist(cart)
			} else {
				cart = carts[0]
			}
			if len(items) == 0 {
				// Add1/Add2 path: new cart item.
				it := s.NewEntity("CartItem")
				s.Set(it, "ID", concolic.Int(a.db.NextID("CartItem")))
				s.Set(it, "CART_ID", cart.Get("ID"))
				s.Set(it, "PRODUCT_ID", productID)
				s.Set(it, "QTY", concolic.Int(1))
				s.Persist(it)
			} else {
				// Add3 path: re-attach the item with a point SELECT and
				// bump its quantity.
				it := s.Find("CartItem", items[0].Get("ID"))
				if it == nil {
					return ErrUnknownInput
				}
				s.Set(it, "QTY", e.Add(it.Get("QTY"), concolic.Int(1)))
			}
			// Sold-counter bookkeeping: a direct single-row UPDATE (value
			// computed from the pre-transaction read).
			sold := e.Add(product.Get("SOLD"), concolic.Int(1))
			if _, err := s.Exec(`UPDATE Product SET SOLD = ? WHERE ID = ?`,
				[]concolic.Value{sold, productID}); err != nil {
				return err
			}
			return nil
		})
	})
}

// priceProducts is the d14/d15/d16 read-modify-write: for every cart
// product (ascending), read the row with a locking SELECT and buffer a
// popularity update. Two concurrent callers upgrade-deadlock on the
// shared rows unless fix f9 serializes them.
func (a *App) priceProducts(e *concolic.Engine, s *orm.Session, items []*orm.Entity) error {
	for _, pid := range cartProductIDs(items, true) {
		rows := s.Query(`SELECT * FROM Product p WHERE p.ID = ?`, []concolic.Value{concolic.Int(pid)}, "p")
		if len(rows) == 0 {
			continue
		}
		p := rows[0]
		s.Set(p, "POPULARITY", e.Add(p.Get("POPULARITY"), concolic.Int(1)))
	}
	return nil
}

// Ship edits shipment information and reprices the order's products.
func (a *App) Ship(e *concolic.Engine, customerID, city concolic.Value) error {
	s := a.session(e)
	return orm.Guard(func() error {
		if e.If(e.Eq(city, concolic.Str(""))) {
			return ErrBadUsername
		}
		carts := s.Query(`SELECT * FROM Cart c WHERE c.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "c")
		if len(carts) == 0 {
			return ErrNoCart
		}
		items := s.Query(`SELECT * FROM CartItem ci WHERE ci.CART_ID = ?`,
			[]concolic.Value{carts[0].Get("ID")}, "ci")
		if len(items) == 0 {
			return ErrEmptyCart
		}
		// Fix f9 serializes the pricing transaction per product (ordered
		// application-level locks held across the transaction).
		unlock := a.serializeProducts(cartProductIDs(items, true))
		defer unlock()
		return s.Transactional(func() error {
			return a.priceProducts(e, s, items)
		})
	})
}

// Checkout submits the order: it prices the cart's products (the d15
// partner), reads them back in Shopizer's natural most-recent-first
// order (d18 — fix f11 sorts ascending), and commits the quantity
// updates in the same descending order (d16/d17 — fix f10 sorts
// ascending).
func (a *App) Checkout(e *concolic.Engine, customerID concolic.Value) error {
	s := a.session(e)
	return orm.Guard(func() error {
		carts := s.Query(`SELECT * FROM Cart c WHERE c.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "c")
		if len(carts) == 0 {
			return ErrNoCart
		}
		items := s.Query(`SELECT * FROM CartItem ci WHERE ci.CART_ID = ?`,
			[]concolic.Value{carts[0].Get("ID")}, "ci")
		if len(items) == 0 {
			return ErrEmptyCart
		}
		unlock := a.serializeProducts(cartProductIDs(items, true))
		defer unlock()
		return s.Transactional(func() error {
			if err := a.priceProducts(e, s, items); err != nil {
				return err
			}
			// Commit phase (b): read the cart's products back.
			read := a.readCartProducts(e, s, items)
			// Commit phase (a): decrement stock per product.
			if err := a.commitProducts(e, s, items, read); err != nil {
				return err
			}
			order := s.NewEntity("Orders")
			orderID := concolic.Int(a.db.NextID("Orders"))
			s.Set(order, "ID", orderID)
			s.Set(order, "CUSTOMER_ID", customerID)
			s.Set(order, "STATUS", concolic.Str("SUBMITTED"))
			s.Set(order, "TOTAL", concolic.Int(0))
			s.Persist(order)
			for _, it := range items {
				op := s.NewEntity("OrderProduct")
				s.Set(op, "ID", concolic.Int(a.db.NextID("OrderProduct")))
				s.Set(op, "ORDER_ID", orderID)
				s.Set(op, "PRODUCT_ID", it.Get("PRODUCT_ID"))
				s.Set(op, "QTY", it.Get("QTY"))
				s.Persist(op)
			}
			return nil
		})
	})
}

// readCartProducts is checkout's stock re-validation read (d18's "read
// the cart's products"): locking SELECTs over the shared product rows,
// most-recent-first unless fix f11 sorts them.
func (a *App) readCartProducts(e *concolic.Engine, s *orm.Session, items []*orm.Entity) map[int64]concolic.Value {
	out := map[int64]concolic.Value{}
	for _, pid := range cartProductIDs(items, a.Fixes["f11"]) {
		rows := s.Query(`SELECT * FROM Product p WHERE p.ID = ?`, []concolic.Value{concolic.Int(pid)}, "p")
		if len(rows) == 1 {
			out[pid] = rows[0].Get("QTY")
		}
	}
	return out
}

// commitProducts is checkout's stock decrement (d16/d17's "commit the
// order's products"): direct UPDATEs over the shared product rows,
// most-recent-first unless fix f10 sorts them.
func (a *App) commitProducts(e *concolic.Engine, s *orm.Session, items []*orm.Entity, read map[int64]concolic.Value) error {
	qtyOf := map[int64]concolic.Value{}
	for _, it := range items {
		pid := it.Get("PRODUCT_ID").C.I
		if prev, ok := qtyOf[pid]; ok {
			qtyOf[pid] = e.Add(prev, it.Get("QTY"))
		} else {
			qtyOf[pid] = it.Get("QTY")
		}
	}
	for _, pid := range cartProductIDs(items, a.Fixes["f10"]) {
		stock, ok := read[pid]
		if !ok {
			continue
		}
		need := qtyOf[pid]
		if e.If(e.Lt(stock, need)) {
			return ErrOutOfStock
		}
		if _, err := s.Exec(`UPDATE Product SET QTY = ? WHERE ID = ?`,
			[]concolic.Value{e.Sub(stock, need), concolic.Int(pid)}); err != nil {
			return err
		}
	}
	return nil
}
