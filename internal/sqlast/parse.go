package sqlast

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"weseer/internal/smt"
)

// Parse parses one SQL statement template in the Fig. 6 syntax. Parameter
// placeholders '?' are numbered left to right. Keywords are
// case-insensitive; identifiers are case-sensitive.
func Parse(sql string) (Stmt, error) {
	p := &parser{toks: make([]token, 0, len(sql)/2)} // a token every two bytes at most, as a rule
	if err := p.tokenize(sql); err != nil {
		return nil, err
	}
	st, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("sqlast: %w (near token %d in %q)", err, p.pos, sql)
	}
	if !p.eof() {
		return nil, fmt.Errorf("sqlast: trailing input %q in %q", p.peek().text, sql)
	}
	Normalize(st)
	return st, nil
}

// MustParse is Parse for statically known statements; it panics on error.
func MustParse(sql string) Stmt {
	st, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return st
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokPunct // one of ( ) , . ? and comparison operators
	tokEOF
)

type token struct {
	kind tokKind
	text string
}

type parser struct {
	toks   []token
	pos    int
	params int
}

func (p *parser) tokenize(sql string) error {
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '?' || c == '*':
			p.toks = append(p.toks, token{tokPunct, string(c)})
			i++
		case c == '=':
			p.toks = append(p.toks, token{tokPunct, "="})
			i++
		case c == '!' || c == '<' || c == '>':
			op := string(c)
			if i+1 < len(sql) && (sql[i+1] == '=' || (c == '<' && sql[i+1] == '>')) {
				op += string(sql[i+1])
				i++
			}
			if op == "!" {
				return fmt.Errorf("sqlast: stray '!' at offset %d", i)
			}
			p.toks = append(p.toks, token{tokPunct, op})
			i++
		case c == '\'':
			j := i + 1
			for j < len(sql) && sql[j] != '\'' {
				j++
			}
			if j == len(sql) {
				return fmt.Errorf("sqlast: unterminated string at offset %d", i)
			}
			p.toks = append(p.toks, token{tokString, sql[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(sql) && sql[i+1] >= '0' && sql[i+1] <= '9':
			j := i + 1
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			p.toks = append(p.toks, token{tokNumber, sql[i:j]})
			i = j
		case isIdentStart(c):
			j := i + 1
			for j < len(sql) && isIdentPart(sql[j]) {
				j++
			}
			p.toks = append(p.toks, token{tokIdent, sql[i:j]})
			i = j
		default:
			return fmt.Errorf("sqlast: unexpected character %q at offset %d", c, i)
		}
	}
	p.toks = append(p.toks, token{tokEOF, ""})
	return nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) eof() bool   { return p.peek().kind == tokEOF }

// kw reports whether the next token is the given keyword (case-insensitive)
// and consumes it if so.
func (p *parser) kw(word string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("expected %s, got %q", word, p.peek().text)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return nil
	}
	return fmt.Errorf("expected %q, got %q", s, t.text)
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.kw("SELECT"):
		return p.selectStmt()
	case p.kw("UPDATE"):
		return p.updateStmt()
	case p.kw("INSERT"):
		return p.insertStmt()
	case p.kw("DELETE"):
		return p.deleteStmt()
	}
	return nil, fmt.Errorf("expected SELECT/UPDATE/INSERT/DELETE, got %q", p.peek().text)
}

var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "JOIN": true, "ON": true, "WHERE": true,
	"UPDATE": true, "SET": true, "INSERT": true, "INTO": true, "VALUES": true,
	"DELETE": true, "AND": true, "OR": true, "IS": true, "NULL": true,
	"DUPLICATE": true, "KEY": true,
}

func isReserved(s string) bool { return reserved[strings.ToUpper(s)] }

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if t := p.peek(); t.kind == tokIdent && !isReserved(t.text) {
		ref.As = t.text
		p.pos++
	}
	return ref, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	s := &Select{}
	if !p.punct("*") {
		for {
			alias, err := p.ident()
			if err != nil {
				return nil, err
			}
			cr := ColRef{Column: alias}
			if p.punct(".") {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				cr = ColRef{Table: alias, Column: col}
			}
			s.Cols = append(s.Cols, cr)
			if !p.punct(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s.From = ref
	for p.kw("JOIN") {
		jref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		preds, err := p.predConj()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, Join{Ref: jref, On: preds})
	}
	if p.kw("WHERE") {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		s.Where = c
	}
	return s, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	set, err := p.assigns()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: tab, Set: set}
	if p.kw("WHERE") {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		u.Where = c
	}
	return u, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := Insert{Table: tab}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ins.Columns = append(ins.Columns, col)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		op, err := p.operand()
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, op)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(ins.Columns) != len(ins.Values) {
		return nil, fmt.Errorf("INSERT has %d columns but %d values", len(ins.Columns), len(ins.Values))
	}
	if p.kw("ON") {
		if err := p.expectKw("DUPLICATE"); err != nil {
			return nil, err
		}
		if err := p.expectKw("KEY"); err != nil {
			return nil, err
		}
		if err := p.expectKw("UPDATE"); err != nil {
			return nil, err
		}
		set, err := p.assigns()
		if err != nil {
			return nil, err
		}
		return &Upsert{Insert: ins, OnDup: set}, nil
	}
	return &ins, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: tab}
	if p.kw("WHERE") {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		d.Where = c
	}
	return d, nil
}

func (p *parser) assigns() ([]Assign, error) {
	var out []Assign
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.operand()
		if err != nil {
			return nil, err
		}
		out = append(out, Assign{Column: col, Value: val})
		if !p.punct(",") {
			break
		}
	}
	return out, nil
}

// cond parses: item (AND item)* where item is a predicate or a
// parenthesized disjunction of conjunctions.
func (p *parser) cond() (Cond, error) {
	var c Cond
	for {
		if p.punct("(") {
			g, err := p.orGroup()
			if err != nil {
				return Cond{}, err
			}
			if len(g.Disjuncts) == 1 {
				c.Preds = append(c.Preds, g.Disjuncts[0]...)
			} else {
				c.Ors = append(c.Ors, g)
			}
		} else {
			pred, err := p.pred()
			if err != nil {
				return Cond{}, err
			}
			c.Preds = append(c.Preds, pred)
		}
		if !p.kw("AND") {
			break
		}
	}
	return c, nil
}

// orGroup parses conj (OR conj)* ')' — the Disj production of Fig. 7.
func (p *parser) orGroup() (OrGroup, error) {
	var g OrGroup
	for {
		conj, err := p.parenConj()
		if err != nil {
			return OrGroup{}, err
		}
		g.Disjuncts = append(g.Disjuncts, conj)
		if !p.kw("OR") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return OrGroup{}, err
	}
	return g, nil
}

// parenConj parses either '(' pred (AND pred)* ')' or a bare predicate.
func (p *parser) parenConj() ([]Pred, error) {
	if p.punct("(") {
		preds, err := p.predConj()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return preds, nil
	}
	pr, err := p.pred()
	if err != nil {
		return nil, err
	}
	return []Pred{pr}, nil
}

func (p *parser) predConj() ([]Pred, error) {
	var out []Pred
	for {
		pr, err := p.pred()
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
		if !p.kw("AND") {
			break
		}
	}
	return out, nil
}

func (p *parser) pred() (Pred, error) {
	l, err := p.operand()
	if err != nil {
		return Pred{}, err
	}
	if p.kw("IS") {
		if err := p.expectKw("NULL"); err != nil {
			return Pred{}, err
		}
		return Pred{L: l, IsNull: true}, nil
	}
	t := p.peek()
	if t.kind != tokPunct {
		return Pred{}, fmt.Errorf("expected comparison operator, got %q", t.text)
	}
	var op smt.CmpOp
	switch t.text {
	case "=":
		op = smt.EQ
	case "!=", "<>":
		op = smt.NE
	case "<":
		op = smt.LT
	case "<=":
		op = smt.LE
	case ">":
		op = smt.GT
	case ">=":
		op = smt.GE
	default:
		return Pred{}, fmt.Errorf("expected comparison operator, got %q", t.text)
	}
	p.pos++
	r, err := p.operand()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Op: op, L: l, R: r}, nil
}

func (p *parser) operand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokPunct:
		if t.text == "?" {
			p.pos++
			op := P(p.params)
			p.params++
			return op, nil
		}
	case tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			r, ok := new(big.Rat).SetString(t.text)
			if !ok {
				return Operand{}, fmt.Errorf("bad decimal %q", t.text)
			}
			// Canonicalize integral decimals ("0.", "2.0") to integer
			// literals so printing and reparsing is a fixpoint.
			if r.IsInt() && r.Num().IsInt64() {
				return VInt(r.Num().Int64()), nil
			}
			return Operand{Kind: ConstReal, Real: r}, nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad integer %q", t.text)
		}
		return VInt(v), nil
	case tokString:
		p.pos++
		return VStr(t.text), nil
	case tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			p.pos++
			return VNull(), nil
		}
		p.pos++
		if p.punct(".") {
			col, err := p.ident()
			if err != nil {
				return Operand{}, err
			}
			return C(t.text, col), nil
		}
		return C("", t.text), nil
	}
	return Operand{}, fmt.Errorf("expected operand, got %q", t.text)
}
