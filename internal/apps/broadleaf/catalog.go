package broadleaf

import (
	"strings"

	"weseer/internal/apps/appkit"
	"weseer/internal/core"
)

// Expectations is the Broadleaf portion of Table II.
func Expectations() []appkit.Expectation {
	return []appkit.Expectation{
		{ID: "d1", Apps: "Broadleaf", APIs: "Register — Register", Desc: "Create a new user", Fix: "f1: Use correct ORM operation", Table: "Customer"},
		{ID: "d2", Apps: "Broadleaf", APIs: "Add2 — Add2", Desc: "App-level locks protecting cart", Fix: "f2: Use MySQL UPSERT mechanism", Table: "CartLock"},
		{ID: "d3", Apps: "Broadleaf", APIs: "Add2,Add3 — Add2,Add3", Desc: "Create a new order item", Fix: "f3: Separate SELECT from original transaction", Table: "OrderItem"},
		{ID: "d4", Apps: "Broadleaf", APIs: "Add2,Add3 — Add2,Add3", Desc: "Create a new order item", Fix: "f3: Separate SELECT from original transaction", Table: "OrderItemPriceDetail"},
		{ID: "d5", Apps: "Broadleaf", APIs: "Add2,Add3 — Add2,Add3", Desc: "Create order and fulfillment items", Fix: "f4: Move forward ORM flush", Table: "Offer/OfferStat"},
		{ID: "d6", Apps: "Broadleaf", APIs: "Add2,Add3 — Add2,Add3", Desc: "Create order and fulfillment items", Fix: "f4: Move forward ORM flush", Table: "FulfillmentOption/FulfillmentStat"},
		{ID: "d7", Apps: "Broadleaf", APIs: "Add2,Add3 — Add2,Add3", Desc: "Calculate shopping cart's price", Fix: "f5: Separate SELECT from original transaction", Table: "PriceAdjustment"},
		{ID: "d8", Apps: "Broadleaf", APIs: "Add2,Add3 — Add2,Add3", Desc: "Calculate shopping cart's price", Fix: "f5: Separate SELECT from original transaction", Table: "PriceDetail"},
		{ID: "d9", Apps: "Broadleaf", APIs: "Add2,Add3 — Ship", Desc: "Calculate shopping cart's price", Fix: "f5: Separate SELECT from original transaction", Table: "PriceAdjustment/PriceDetail"},
		{ID: "d10", Apps: "Broadleaf", APIs: "Ship — Ship", Desc: "Create address information", Fix: "f6: Reorder SQL statements", Table: "Address"},
		{ID: "d11", Apps: "Broadleaf", APIs: "Ship — Ship", Desc: "Calculate shopping cart's price", Fix: "f7: Separate SELECT from original transaction", Table: "ShippingAdjustment"},
		{ID: "d12", Apps: "Broadleaf", APIs: "Ship — Ship", Desc: "Calculate shopping cart's price", Fix: "f8: Separate SELECT from original transaction", Table: "TaxDetail"},
		{ID: "d13", Apps: "Broadleaf", APIs: "Ship — Ship", Desc: "Calculate shopping cart's price", Fix: "f8: Separate SELECT from original transaction", Table: "FeeDetail"},
	}
}

// Classify maps one analyzer-reported deadlock onto the Table II catalog
// entry it manifests (the paper's authors performed this confirmation
// step manually). It returns "" for cycles that do not correspond to a
// cataloged deadlock, and "fp-checkout-applock" for the checkout
// inventory cycle that Broadleaf's own application-level lock prevents at
// runtime (the Sec. V-D false-positive class).
func Classify(d *core.Deadlock) string {
	has := func(tab string) bool {
		return d.Cycle.Table1 == tab || d.Cycle.Table2 == tab
	}
	shipInvolved := strings.HasPrefix(d.APIs[0], "Ship") || strings.HasPrefix(d.APIs[1], "Ship")
	addInvolved := strings.HasPrefix(d.APIs[0], "Add") || strings.HasPrefix(d.APIs[1], "Add")
	switch {
	case has("Customer"):
		return "d1"
	case has("CartLock"):
		return "d2"
	case has("Offer") || has("OfferStat"):
		return "d5"
	case has("FulfillmentOption") || has("FulfillmentStat"):
		return "d6"
	case has("OrderItemPriceDetail"):
		return "d4"
	case has("ShippingAdjustment"):
		return "d11"
	case has("TaxDetail"):
		return "d12"
	case has("FeeDetail"):
		return "d13"
	case has("Address"):
		return "d10"
	case has("PriceAdjustment") || has("PriceDetail"):
		if shipInvolved && addInvolved {
			return "d9"
		}
		if has("PriceAdjustment") {
			return "d7"
		}
		return "d8"
	case has("OrderItem") || has("FulfillmentItem") || has("FulfillmentGroup"):
		return "d3"
	case has("Product"):
		return "fp-checkout-applock"
	case has("Orders") && strings.HasPrefix(d.APIs[0], "Checkout") && strings.HasPrefix(d.APIs[1], "Checkout"):
		// Checkout's order-status read-modify-write: protected at runtime
		// by the same application-level inventory lock.
		return "fp-checkout-applock"
	default:
		return ""
	}
}
