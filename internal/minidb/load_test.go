package minidb

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// loadSchema has a DECIMAL column, a unique secondary and a plain one.
func loadSchema() *schema.Schema {
	s := schema.New()
	s.AddTable("Item").
		Col("ID", schema.Int).
		Col("PRICE", schema.Decimal).
		Col("SKU", schema.Varchar).
		Col("BIN", schema.Int).
		PrimaryKey("ID").
		UniqueIndex("uniq_item_sku", "SKU").
		Index("idx_item_bin", "BIN")
	return s
}

// entries renders every entry of every index of db, key and value bytes,
// in key order, followed by every table's TableRows.
func entries(db *DB) string {
	var b strings.Builder
	for _, t := range db.scm.Tables() {
		for _, ix := range db.tables[t.Name].indexes {
			fmt.Fprintf(&b, "%s.%s\n", t.Name, ix.Name)
			ix.entries.AscendAll(func(k, v string) bool {
				fmt.Fprintf(&b, "%q %q\n", k, v)
				return true
			})
		}
		for _, row := range db.TableRows(t.Name) {
			for _, d := range row {
				fmt.Fprintf(&b, "%t %d %s|", d.Null, d.Kind, d)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestLoadStoresWhatInsertStores: the index entries Load writes are, byte
// for byte, those committed INSERTs of the same values write — an integer
// datum in a DECIMAL column stays an integer, an unset column is the NULL
// of its kind, two NULL SKUs share the unique index — and Load runs no
// statement and commits no transaction.
func TestLoadStoresWhatInsertStores(t *testing.T) {
	ins := Open(loadSchema(), Config{})
	txn := ins.Begin()
	exec(t, txn, `INSERT INTO Item (ID, PRICE, SKU, BIN) VALUES (?, ?, ?, ?)`, I64(1), I64(5), Str("a"), I64(3))
	exec(t, txn, `INSERT INTO Item (ID, PRICE) VALUES (?, ?)`, I64(2), RealInt(7))
	exec(t, txn, `INSERT INTO Item (ID, PRICE, SKU, BIN) VALUES (?, ?, ?, ?)`, I64(3), Real(big.NewRat(1, 3)), Str("c"), I64(3))
	exec(t, txn, `INSERT INTO Item (ID, BIN) VALUES (?, ?)`, I64(4), I64(1))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	db := Open(loadSchema(), Config{})
	err := db.Load("Item", []Row{
		{I64(3), Real(big.NewRat(1, 3)), Str("c"), I64(3)},
		{I64(1), I64(5), Str("a"), I64(3)},
	})
	if err == nil {
		err = db.Load("Item", []Row{
			{I64(2), RealInt(7), NullDatum(KStr), NullDatum(KInt)},
			{I64(4), NullDatum(KReal), NullDatum(KStr), I64(1)},
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := entries(db), entries(ins); got != want {
		t.Errorf("Load stored\n%s\nINSERT stored\n%s", got, want)
	}
	if st := db.StatsSnapshot(); st != (Stats{}) {
		t.Errorf("Load counted %+v", st)
	}
	// The loaded rows are committed data a transaction reads and locks.
	txn = db.Begin()
	if rs := exec(t, txn, `SELECT i.ID FROM Item i WHERE i.BIN = ?`, I64(3)); len(rs.Rows) != 2 {
		t.Errorf("BIN = 3 reads %v", rs.Rows)
	}
	if _, err := txn.Exec(sqlast.MustParse(`INSERT INTO Item (ID, SKU) VALUES (?, ?)`), []Datum{I64(9), Str("a")}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("INSERT over a loaded SKU: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefuses: each batch Load must refuse returns an error and leaves
// every index entry as it was, the batch's valid rows included.
func TestLoadRefuses(t *testing.T) {
	stored := []Row{{I64(1), I64(5), Str("a"), I64(3)}}
	cases := []struct {
		name, table string
		rows        []Row
		want        error
	}{
		{"DuplicatePrimaryInBatch", "Item", []Row{{I64(2), I64(1), Str("b"), I64(1)}, {I64(2), I64(1), Str("c"), I64(1)}}, ErrDuplicateKey},
		{"DuplicatePrimaryStored", "Item", []Row{{I64(2), I64(1), Str("b"), I64(1)}, {I64(1), I64(1), Str("c"), I64(1)}}, ErrDuplicateKey},
		{"DuplicateUniqueStored", "Item", []Row{{I64(2), I64(1), Str("b"), I64(1)}, {I64(3), I64(1), Str("a"), I64(1)}}, ErrDuplicateKey},
		{"DuplicateUniqueInBatch", "Item", []Row{{I64(2), I64(1), Str("b"), I64(1)}, {I64(3), I64(1), Str("b"), I64(1)}}, ErrDuplicateKey},
		{"NullPrimaryKey", "Item", []Row{{I64(2), I64(1), Str("b"), I64(1)}, {NullDatum(KInt), I64(1), Str("c"), I64(1)}}, nil},
		{"RowWidth", "Item", []Row{{I64(2), I64(1), Str("b"), I64(1)}, {I64(3), I64(1), Str("c")}}, nil},
		{"UnknownTable", "Items", []Row{{I64(2), I64(1), Str("b"), I64(1)}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := Open(loadSchema(), Config{})
			if err := db.Load("Item", stored); err != nil {
				t.Fatal(err)
			}
			before := entries(db)
			err := db.Load(tc.table, tc.rows)
			if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("Load = %v, want an error (%v)", err, tc.want)
			}
			if after := entries(db); after != before {
				t.Errorf("a refused Load changed the storage:\n%s\nwas\n%s", after, before)
			}
		})
	}
}

// TestLoadRefusesWhileLocked: Load refuses while an open transaction holds
// a lock, writes nothing, and loads once the transaction has committed.
func TestLoadRefusesWhileLocked(t *testing.T) {
	db := Open(loadSchema(), Config{})
	txn := db.Begin()
	exec(t, txn, `SELECT i.ID FROM Item i WHERE i.ID = ?`, I64(1))
	before := entries(db)
	rows := []Row{{I64(1), I64(5), Str("a"), I64(3)}}
	if err := db.Load("Item", rows); err == nil {
		t.Error("Load succeeded while a transaction held a lock")
	}
	if after := entries(db); after != before {
		t.Errorf("a refused Load changed the storage:\n%s\nwas\n%s", after, before)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("Item", rows); err != nil {
		t.Errorf("Load after the commit: %v", err)
	}
}
