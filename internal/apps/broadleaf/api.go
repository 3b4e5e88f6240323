package broadleaf

import (
	"weseer/internal/concolic"
	"weseer/internal/orm"
)

// The five Table I APIs. Each opens a fresh persistence context (one
// session per request, as Spring-managed Hibernate does), warms the read
// cache outside the transaction where the real controllers do, and runs
// the business logic under @Transactional semantics.

// Register creates a customer account (Table I: username, email,
// password, password confirmation) and returns the new customer's id.
func (a *App) Register(e *concolic.Engine, username, email, password, confirm concolic.Value) (int64, error) {
	s := a.session(e)
	var id int64
	err := orm.Guard(func() error {
		if e.If(e.Ne(password, confirm)) {
			return ErrPasswordMismatch
		}
		if e.If(e.Eq(username, concolic.Str(""))) {
			return ErrBadUsername
		}
		return s.Transactional(func() error {
			id = a.db.NextID("Customer")
			c := s.NewEntity("Customer")
			s.Set(c, "ID", concolic.Int(id))
			s.Set(c, "USERNAME", username)
			s.Set(c, "EMAIL", email)
			s.Set(c, "PASSWORD", password)
			if a.Fixes["f1"] {
				// Fix f1: persist issues only the INSERT.
				s.Persist(c)
			} else {
				// Deadlock d1: merge issues a SELECT on the (absent) key —
				// acquiring a range lock — followed by the INSERT.
				s.Merge(c)
			}
			return nil
		})
	})
	return id, err
}

// Add puts one product into the customer's cart (Table I: userId,
// productId). Its three invocations take three paths: Add1 creates the
// cart, Add2 adds a new item, Add3 increments an existing item.
func (a *App) Add(e *concolic.Engine, customerID, productID concolic.Value) error {
	s := a.session(e)
	probe := a.session(e)
	return orm.Guard(func() error {
		// Controller warm-up reads (outside the transaction: their rows
		// land in the session read cache, so in-transaction reads of them
		// send no SQL and take no locks — Sec. II-B).
		carts := s.Query(`SELECT * FROM Cart c WHERE c.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "c")
		if len(carts) == 0 {
			return a.addFirst(e, s, customerID, productID)
		}
		cart := carts[0]
		orders := s.Query(`SELECT * FROM Orders o WHERE o.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "o")
		if len(orders) == 0 {
			return ErrNoCart
		}
		order := orders[0]
		fgs := s.Query(`SELECT * FROM FulfillmentGroup fg WHERE fg.ORDER_ID = ?`, []concolic.Value{order.Get("ID")}, "fg")
		product := s.Find("Product", productID)
		offer := s.Find("Offer", productID)
		fopt := s.Find("FulfillmentOption", productID)
		if product == nil || offer == nil || fopt == nil {
			return ErrNoCart
		}

		return s.Transactional(func() error {
			a.cartLock(e, s, cart.Get("ID"))

			items := selectorFor(a.Fixes["f3"], s, probe).Query(
				`SELECT * FROM OrderItem oi WHERE oi.ORDER_ID = ? AND oi.PRODUCT_ID = ?`,
				[]concolic.Value{order.Get("ID"), productID}, "oi")
			if len(items) == 0 {
				// Add2 path. The usage counters are modified first, but
				// the write-behind cache defers their UPDATEs to commit —
				// after the stat-row reads below. That reordering creates
				// deadlocks d5/d6 against Add3's eager program-order
				// updates; fix f4 flushes here, restoring program order.
				s.Set(offer, "USES", e.Add(offer.Get("USES"), concolic.Int(1)))
				s.Set(fopt, "USES", e.Add(fopt.Get("USES"), concolic.Int(1)))
				if a.Fixes["f4"] {
					if err := s.Flush(); err != nil {
						return err
					}
				}
				if err := a.addNewItem(e, s, probe, order, fgs, product, productID); err != nil {
					return err
				}
				a.priceCart(e, s, probe, order)
				a.readOfferStats(e, s, productID)
				a.readFulfillmentStats(e, s, productID)
			} else {
				// Add3 path: counters and stats update eagerly, in program
				// order (offer first).
				if err := a.bumpCountersEager(e, s, offer, fopt, productID); err != nil {
					return err
				}
				a.bumpItem(e, s, probe, order, items[0], product)
				a.priceCart(e, s, probe, order)
			}
			return nil
		})
	})
}

// addFirst is the Add1 path: create the cart, order, and fulfillment
// group, then add the first item.
func (a *App) addFirst(e *concolic.Engine, s *orm.Session, customerID, productID concolic.Value) error {
	product := s.Find("Product", productID)
	if product == nil {
		return ErrNoCart
	}
	return s.Transactional(func() error {
		cart := s.NewEntity("Cart")
		s.Set(cart, "ID", concolic.Int(a.db.NextID("Cart")))
		s.Set(cart, "CUSTOMER_ID", customerID)
		s.Set(cart, "STATUS", concolic.Str("ACTIVE"))
		s.Persist(cart)

		order := s.NewEntity("Orders")
		orderID := concolic.Int(a.db.NextID("Orders"))
		s.Set(order, "ID", orderID)
		s.Set(order, "CUSTOMER_ID", customerID)
		s.Set(order, "STATUS", concolic.Str("IN_PROCESS"))
		s.Set(order, "TOTAL", concolic.Int(0))
		s.Persist(order)

		fg := s.NewEntity("FulfillmentGroup")
		s.Set(fg, "ID", concolic.Int(a.db.NextID("FulfillmentGroup")))
		s.Set(fg, "ORDER_ID", orderID)
		s.Set(fg, "TOTAL", concolic.Int(0))
		s.Persist(fg)

		oi := s.NewEntity("OrderItem")
		s.Set(oi, "ID", concolic.Int(a.db.NextID("OrderItem")))
		s.Set(oi, "ORDER_ID", orderID)
		s.Set(oi, "PRODUCT_ID", productID)
		s.Set(oi, "QTY", concolic.Int(1))
		s.Set(oi, "PRICE", product.Get("PRICE"))
		s.Persist(oi)
		return nil
	})
}

// cartLock takes Broadleaf's per-cart application lock row: deadlock d2's
// check-then-insert, or fix f2's single UPSERT.
func (a *App) cartLock(e *concolic.Engine, s *orm.Session, cartID concolic.Value) {
	if a.Fixes["f2"] {
		one := concolic.Int(1)
		if _, err := s.Exec(
			`INSERT INTO CartLock (ID, LOCKED) VALUES (?, ?) ON DUPLICATE KEY UPDATE LOCKED = ?`,
			[]concolic.Value{cartID, one, one}); err != nil {
			panic(&orm.FlushError{Err: err})
		}
		return
	}
	// Deadlock d2: the existence SELECT takes a range lock when the row
	// is absent; the buffered INSERT then collides with the peer's range.
	locks := s.Query(`SELECT * FROM CartLock cl WHERE cl.ID = ?`, []concolic.Value{cartID}, "cl")
	if len(locks) == 0 {
		l := s.NewEntity("CartLock")
		s.Set(l, "ID", cartID)
		s.Set(l, "LOCKED", concolic.Int(1))
		s.Persist(l)
		return
	}
	s.Set(locks[0], "LOCKED", concolic.Int(1))
}

// addNewItem is the Add2 path: create the order item and its price
// detail (deadlocks d3/d4 — existence SELECTs over regions the commit
// then inserts into; fix f3 moves the SELECTs to a separate transaction).
func (a *App) addNewItem(e *concolic.Engine, s, probe *orm.Session, order *orm.Entity, fgs []*orm.Entity, product *orm.Entity, productID concolic.Value) error {
	oiID := concolic.Int(a.db.NextID("OrderItem"))
	oi := s.NewEntity("OrderItem")
	s.Set(oi, "ID", oiID)
	s.Set(oi, "ORDER_ID", order.Get("ID"))
	s.Set(oi, "PRODUCT_ID", productID)
	s.Set(oi, "QTY", concolic.Int(1))
	s.Set(oi, "PRICE", product.Get("PRICE"))
	s.Persist(oi)

	// d4: price-detail existence check for the new item.
	sel := selectorFor(a.Fixes["f3"], s, probe)
	details := sel.Query(`SELECT * FROM OrderItemPriceDetail pd WHERE pd.ORDER_ITEM_ID = ?`,
		[]concolic.Value{oiID}, "pd")
	if len(details) == 0 {
		pd := s.NewEntity("OrderItemPriceDetail")
		s.Set(pd, "ID", concolic.Int(a.db.NextID("OrderItemPriceDetail")))
		s.Set(pd, "ORDER_ITEM_ID", oiID)
		s.Set(pd, "AMOUNT", product.Get("PRICE"))
		s.Persist(pd)
	}

	s.Set(order, "TOTAL", e.Add(order.Get("TOTAL"), product.Get("PRICE")))

	if len(fgs) > 0 {
		fi := s.NewEntity("FulfillmentItem")
		s.Set(fi, "ID", concolic.Int(a.db.NextID("FulfillmentItem")))
		s.Set(fi, "FG_ID", fgs[0].Get("ID"))
		s.Set(fi, "ORDER_ITEM_ID", oiID)
		s.Set(fi, "QTY", concolic.Int(1))
		s.Persist(fi)
	}
	return nil
}

// bumpItem is the Add3 path: increment the existing item's quantity.
func (a *App) bumpItem(e *concolic.Engine, s, probe *orm.Session, order, found *orm.Entity, product *orm.Entity) {
	// With f3 the existence check ran on the probe session; re-attach the
	// item to the main session with a point SELECT (row lock, no range).
	oi := found
	if a.Fixes["f3"] {
		oi = s.Find("OrderItem", found.Get("ID"))
		if oi == nil {
			return
		}
	}
	s.Set(oi, "QTY", e.Add(oi.Get("QTY"), concolic.Int(1)))
	s.Set(order, "TOTAL", e.Add(order.Get("TOTAL"), product.Get("PRICE")))

	// d4's sibling on the Add3 path: adjust the existing price detail.
	sel := selectorFor(a.Fixes["f3"], s, probe)
	details := sel.Query(`SELECT * FROM OrderItemPriceDetail pd WHERE pd.ORDER_ITEM_ID = ?`,
		[]concolic.Value{oi.Get("ID")}, "pd")
	for _, d := range details {
		target := d
		if a.Fixes["f3"] {
			target = s.Find("OrderItemPriceDetail", d.Get("ID"))
			if target == nil {
				continue
			}
		}
		s.Set(target, "AMOUNT", e.Add(target.Get("AMOUNT"), product.Get("PRICE")))
	}
}

// priceCart recomputes cart pricing: deadlocks d7 (PriceAdjustment) and
// d8 (PriceDetail); Ship's call makes the cross-API deadlock d9. Fix f5
// moves the SELECTs into a separate transaction.
func (a *App) priceCart(e *concolic.Engine, s, probe *orm.Session, order *orm.Entity) {
	sel := selectorFor(a.Fixes["f5"], s, probe)
	orderID := order.Get("ID")

	adjs := sel.Query(`SELECT * FROM PriceAdjustment pa WHERE pa.ORDER_ID = ?`,
		[]concolic.Value{orderID}, "pa")
	amount := e.Mul(concolic.Int(-1), concolic.Int(int64(1+len(adjs))))
	pa := s.NewEntity("PriceAdjustment")
	s.Set(pa, "ID", concolic.Int(a.db.NextID("PriceAdjustment")))
	s.Set(pa, "ORDER_ID", orderID)
	s.Set(pa, "AMOUNT", amount)
	s.Persist(pa)

	dets := sel.Query(`SELECT * FROM PriceDetail pd WHERE pd.ORDER_ID = ?`,
		[]concolic.Value{orderID}, "pd")
	pd := s.NewEntity("PriceDetail")
	s.Set(pd, "ID", concolic.Int(a.db.NextID("PriceDetail")))
	s.Set(pd, "ORDER_ID", orderID)
	s.Set(pd, "AMOUNT", concolic.Int(int64(len(dets))))
	s.Persist(pd)
}

// readOfferStats is deadlock d5's read side: Add2 reads the shared
// per-product stat row while its offer-counter UPDATE is still buffered.
// Paired with Add3's eager counter-then-stat updates, the reordered
// UPDATE closes a hold-and-wait cycle; fix f4's early flush restores
// program order (offer row first in every path).
func (a *App) readOfferStats(e *concolic.Engine, s *orm.Session, productID concolic.Value) {
	s.Query(`SELECT * FROM OfferStat st WHERE st.ID = ?`, []concolic.Value{productID}, "st")
}

// readFulfillmentStats is d6: the same pattern over fulfillment stats.
func (a *App) readFulfillmentStats(e *concolic.Engine, s *orm.Session, productID concolic.Value) {
	s.Query(`SELECT * FROM FulfillmentStat st WHERE st.ID = ?`, []concolic.Value{productID}, "st")
}

// bumpCountersEager is Add3's bookkeeping: the counter and stat rows
// update eagerly via direct statements, in program order — offer first.
func (a *App) bumpCountersEager(e *concolic.Engine, s *orm.Session, offer, fopt *orm.Entity, productID concolic.Value) error {
	one := concolic.Int(1)
	if _, err := s.Exec(`UPDATE Offer SET USES = ? WHERE ID = ?`,
		[]concolic.Value{e.Add(offer.Get("USES"), one), productID}); err != nil {
		return err
	}
	if _, err := s.Exec(`UPDATE OfferStat SET VIEWS = ? WHERE ID = ?`,
		[]concolic.Value{e.Add(offer.Get("USES"), one), productID}); err != nil {
		return err
	}
	if _, err := s.Exec(`UPDATE FulfillmentOption SET USES = ? WHERE ID = ?`,
		[]concolic.Value{e.Add(fopt.Get("USES"), one), productID}); err != nil {
		return err
	}
	_, err := s.Exec(`UPDATE FulfillmentStat SET VIEWS = ? WHERE ID = ?`,
		[]concolic.Value{e.Add(fopt.Get("USES"), one), productID})
	return err
}

// Ship edits the customer's shipment information (Table I: userId,
// address, phone). Deadlocks d10 (address scan-then-insert, fix f6), d11
// (shipping adjustment, f7), d12/d13 (tax and fee details, f8), and d9
// (cart pricing shared with Add, f5).
func (a *App) Ship(e *concolic.Engine, customerID, city, phone concolic.Value) error {
	s := a.session(e)
	probe := a.session(e)
	return orm.Guard(func() error {
		if e.If(e.Eq(phone, concolic.Str(""))) {
			return ErrBadUsername
		}
		orders := s.Query(`SELECT * FROM Orders o WHERE o.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "o")
		if len(orders) == 0 {
			return ErrNoCart
		}
		order := orders[0]

		return s.Transactional(func() error {
			if a.Fixes["f6"] {
				// Fix f6: insert first, then read the row back with a
				// point query — no range scan, no gap locks.
				addrID := concolic.Int(a.db.NextID("Address"))
				addr := s.NewEntity("Address")
				s.Set(addr, "ID", addrID)
				s.Set(addr, "CUSTOMER_ID", customerID)
				s.Set(addr, "CITY", city)
				s.Set(addr, "PHONE", phone)
				s.Persist(addr)
				if err := s.Flush(); err != nil {
					return err
				}
				s.Query(`SELECT * FROM Address ad WHERE ad.ID = ?`, []concolic.Value{addrID}, "ad")
			} else {
				// Deadlock d10: scan the customer's addresses (range
				// locks) and then insert a new one into the same region.
				s.Query(`SELECT * FROM Address ad WHERE ad.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "ad")
				addr := s.NewEntity("Address")
				s.Set(addr, "ID", concolic.Int(a.db.NextID("Address")))
				s.Set(addr, "CUSTOMER_ID", customerID)
				s.Set(addr, "CITY", city)
				s.Set(addr, "PHONE", phone)
				s.Persist(addr)
			}

			s.Set(order, "STATUS", concolic.Str("SHIPPING"))

			// d11: shipping adjustment (fix f7).
			orderID := order.Get("ID")
			selF7 := selectorFor(a.Fixes["f7"], s, probe)
			sadj := selF7.Query(`SELECT * FROM ShippingAdjustment sa WHERE sa.ORDER_ID = ?`,
				[]concolic.Value{orderID}, "sa")
			rec := s.NewEntity("ShippingAdjustment")
			s.Set(rec, "ID", concolic.Int(a.db.NextID("ShippingAdjustment")))
			s.Set(rec, "ORDER_ID", orderID)
			s.Set(rec, "AMOUNT", concolic.Int(int64(len(sadj))))
			s.Persist(rec)

			// d12/d13: tax and fee details (fix f8).
			selF8 := selectorFor(a.Fixes["f8"], s, probe)
			taxes := selF8.Query(`SELECT * FROM TaxDetail td WHERE td.ORDER_ID = ?`,
				[]concolic.Value{orderID}, "td")
			tax := s.NewEntity("TaxDetail")
			s.Set(tax, "ID", concolic.Int(a.db.NextID("TaxDetail")))
			s.Set(tax, "ORDER_ID", orderID)
			s.Set(tax, "AMOUNT", concolic.Int(int64(len(taxes))))
			s.Persist(tax)

			fees := selF8.Query(`SELECT * FROM FeeDetail fd WHERE fd.ORDER_ID = ?`,
				[]concolic.Value{orderID}, "fd")
			fee := s.NewEntity("FeeDetail")
			s.Set(fee, "ID", concolic.Int(a.db.NextID("FeeDetail")))
			s.Set(fee, "ORDER_ID", orderID)
			s.Set(fee, "AMOUNT", concolic.Int(int64(len(fees))))
			s.Persist(fee)

			// d9: Ship reprices the cart through the same routine as Add.
			a.priceCart(e, s, probe, order)
			return nil
		})
	})
}

// Payment edits the customer's payment information (Table I). It has no
// known deadlocks: a pure persist.
func (a *App) Payment(e *concolic.Engine, customerID, address, phone concolic.Value) error {
	s := a.session(e)
	return orm.Guard(func() error {
		if e.If(e.Eq(address, concolic.Str(""))) {
			return ErrBadUsername
		}
		return s.Transactional(func() error {
			p := s.NewEntity("PaymentInfo")
			s.Set(p, "ID", concolic.Int(a.db.NextID("PaymentInfo")))
			s.Set(p, "CUSTOMER_ID", customerID)
			s.Set(p, "ADDRESS", address)
			s.Set(p, "PHONE", phone)
			s.Persist(p)
			return nil
		})
	})
}

// Checkout submits the order — the paper's Fig. 1 finishOrder: the order
// comes from the read cache (no SQL), the item list loads lazily (Q4's
// three-way join), and each product's quantity update is buffered until
// commit (Q6). Broadleaf's own application-level inventory lock protects
// the read-modify-write — ad-hoc synchronization WeSEER cannot see, so
// the analyzer reports this site as a potential deadlock (a documented
// false-positive source, Sec. V-D).
func (a *App) Checkout(e *concolic.Engine, customerID concolic.Value) error {
	s := a.session(e)
	return orm.Guard(func() error {
		if e.If(e.Eq(customerID, concolic.Int(-1))) {
			return nil
		}
		orders := s.Query(`SELECT * FROM Orders o WHERE o.CUSTOMER_ID = ?`, []concolic.Value{customerID}, "o")
		if len(orders) == 0 {
			return ErrNoCart
		}
		orderID := orders[0].Get("ID")

		a.inventoryMu.Lock()
		defer a.inventoryMu.Unlock()
		return s.Transactional(func() error {
			// Read from the cache populated before the transaction: no
			// statement is sent (Fig. 1, line 5).
			o := s.Find("Orders", orderID)
			// Lazy loading triggers Q4 here (Fig. 1, line 7).
			for _, oi := range s.Lazy(o, "OrdItems").Items() {
				if err := a.updateQuantity(e, s, oi); err != nil {
					return err
				}
			}
			s.Set(o, "STATUS", concolic.Str("SUBMITTED"))
			return nil
		})
	})
}

// updateQuantity is Fig. 1's updateQuantity: check and decrease the
// product's remaining stock. The product is already in the read cache
// (fetched by Q4), so no statement is sent here; the setQty is Q6's
// triggering code.
func (a *App) updateQuantity(e *concolic.Engine, s *orm.Session, oi *orm.Entity) error {
	p := s.Find("Product", oi.Get("PRODUCT_ID"))
	if p == nil {
		return ErrNoCart
	}
	pQty, oiQty := p.Get("QTY"), oi.Get("QTY")
	if e.If(e.Lt(pQty, oiQty)) {
		return ErrOutOfStock
	}
	s.Set(p, "QTY", e.Sub(pQty, oiQty)) // triggers Q6 at flush
	return nil
}
