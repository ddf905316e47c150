package predicate

// This file implements a small parser for SQL-style WHERE clauses so
// predicates can be written as text — the form a DBMS integration (§6 of
// the paper) would hand to the estimator. The grammar covers exactly the
// predicate class the paper supports (§2.2): conjunctions, disjunctions,
// and negations of range and equality constraints over named columns.
//
//	expr     := orExpr
//	orExpr   := andExpr { OR andExpr }
//	andExpr  := unary { AND unary }
//	unary    := NOT unary | '(' expr ')' | cmp
//	cmp      := column op number
//	          | number op column
//	          | column BETWEEN number AND number
//	          | column IN '(' number {',' number} ')'
//	op       := '=' | '<' | '<=' | '>' | '>=' | '!=' | '<>'
//
// Comparison semantics follow §2.2's discretization: on Integer and
// Categorical columns, "c = k" lowers to [k, k+1) and "c != k" to its
// complement; on Real columns equality selects a degenerate interval and
// parses as an error, since its selectivity is 0 under any continuous
// model. On a discrete column every comparison becomes a half-open
// interval with integral ends, covering exactly the values SQL selects,
// whatever the literal: "c >= v", "c < v" and BETWEEN's lower bound use
// ceil(v), and "c > v", "c <= v" and BETWEEN's upper bound floor(v)+1. So
// "c = v" with a fractional v selects nothing, "c != v" everything, and IN
// drops its fractional values.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// ParseError reports a syntax or semantic error with its byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("predicate: parse error at offset %d: %s", e.Pos, e.Msg)
}

// Parse parses a WHERE-style boolean expression against the schema and
// returns the equivalent Predicate.
func Parse(s *Schema, input string) (*Predicate, error) {
	p := &parser{schema: s, input: input}
	p.next()
	expr, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %q after expression", p.tok.text)
	}
	return expr, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(s *Schema, input string) *Predicate {
	p, err := Parse(s, input)
	if err != nil {
		panic(err)
	}
	return p
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokOp     // = < <= > >= != <>
	tokLParen // (
	tokRParen // )
	tokComma
	tokBad // unrecognized character
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	schema *Schema
	input  string
	pos    int
	tok    token
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

// next advances to the following token.
func (p *parser) next() {
	for p.pos < len(p.input) && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.input) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.input[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.tok = token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		p.pos++
		p.tok = token{kind: tokRParen, text: ")", pos: start}
	case c == ',':
		p.pos++
		p.tok = token{kind: tokComma, text: ",", pos: start}
	case c == '=':
		p.pos++
		p.tok = token{kind: tokOp, text: "=", pos: start}
	case c == '<' || c == '>' || c == '!':
		p.pos++
		text := string(c)
		if p.pos < len(p.input) && (p.input[p.pos] == '=' || (c == '<' && p.input[p.pos] == '>')) {
			text += string(p.input[p.pos])
			p.pos++
		}
		p.tok = token{kind: tokOp, text: text, pos: start}
	case c == '-' || c == '.' || (c >= '0' && c <= '9'):
		p.pos++
		for p.pos < len(p.input) {
			c := p.input[p.pos]
			if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
				((c == '+' || c == '-') && (p.input[p.pos-1] == 'e' || p.input[p.pos-1] == 'E')) {
				p.pos++
				continue
			}
			break
		}
		p.tok = token{kind: tokNumber, text: p.input[start:p.pos], pos: start}
	case unicode.IsLetter(rune(c)) || c == '_':
		p.pos++
		for p.pos < len(p.input) {
			c := rune(p.input[p.pos])
			if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
				p.pos++
				continue
			}
			break
		}
		p.tok = token{kind: tokIdent, text: p.input[start:p.pos], pos: start}
	default:
		p.tok = token{kind: tokBad, text: string(c), pos: start}
		p.pos = len(p.input) // force termination; Parse reports the error
	}
}

// keyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) parseOr() (*Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []*Predicate{left}
	for p.keyword("or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return Or(terms...), nil
}

func (p *parser) parseAnd() (*Predicate, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	terms := []*Predicate{left}
	for p.keyword("and") {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return And(terms...), nil
}

func (p *parser) parseUnary() (*Predicate, error) {
	switch {
	case p.keyword("not"):
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(inner), nil
	case p.keyword("true"):
		p.next()
		return All(), nil
	case p.tok.kind == tokLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ')', got %q", p.tok.text)
		}
		p.next()
		return inner, nil
	default:
		return p.parseCmp()
	}
}

// parseCmp handles column-op-number, number-op-column, BETWEEN, and IN.
func (p *parser) parseCmp() (*Predicate, error) {
	// number op column form: flip into column form.
	if p.tok.kind == tokNumber {
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokOp {
			return nil, p.errf("expected comparison operator, got %q", p.tok.text)
		}
		op := flipOp(p.tok.text)
		p.next()
		col, err := p.parseColumn()
		if err != nil {
			return nil, err
		}
		return p.buildCmp(col, op, v)
	}

	col, err := p.parseColumn()
	if err != nil {
		return nil, err
	}
	switch {
	case p.keyword("between"):
		p.next()
		lo, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if !p.keyword("and") {
			return nil, p.errf("expected AND in BETWEEN, got %q", p.tok.text)
		}
		p.next()
		hi, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, p.errf("BETWEEN bounds inverted: %g > %g", lo, hi)
		}
		// SQL BETWEEN is inclusive at both ends.
		return Range(col, p.atOrAbove(col, lo), p.above(col, hi)), nil
	case p.keyword("in"):
		p.next()
		if p.tok.kind != tokLParen {
			return nil, p.errf("expected '(' after IN, got %q", p.tok.text)
		}
		p.next()
		var vals []float64
		for {
			v, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if v == math.Trunc(v) { // a fractional value matches no row
				vals = append(vals, v)
			}
			if p.tok.kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ')' to close IN list, got %q", p.tok.text)
		}
		p.next()
		if p.schema.Cols[col].Kind == Real {
			return nil, p.errf("IN requires a discrete column, %q is real", p.schema.Cols[col].Name)
		}
		return In(col, vals...), nil
	case p.tok.kind == tokOp:
		op := p.tok.text
		p.next()
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return p.buildCmp(col, op, v)
	default:
		return nil, p.errf("expected comparison after column, got %q", p.tok.text)
	}
}

// buildCmp lowers one comparison to a Predicate.
func (p *parser) buildCmp(col int, op string, v float64) (*Predicate, error) {
	discrete := p.schema.Cols[col].Kind != Real
	switch op {
	case "=":
		if !discrete {
			return nil, p.errf("equality requires a discrete column, %q is real", p.schema.Cols[col].Name)
		}
		return Range(col, p.atOrAbove(col, v), p.above(col, v)), nil
	case "!=", "<>":
		if !discrete {
			return nil, p.errf("inequality requires a discrete column, %q is real", p.schema.Cols[col].Name)
		}
		return Not(Range(col, p.atOrAbove(col, v), p.above(col, v))), nil
	case "<":
		return AtMost(col, p.atOrAbove(col, v)), nil
	case "<=":
		return AtMost(col, p.above(col, v)), nil
	case ">":
		return AtLeast(col, p.above(col, v)), nil
	case ">=":
		return AtLeast(col, p.atOrAbove(col, v)), nil
	default:
		return nil, p.errf("unknown operator %q", op)
	}
}

// atOrAbove returns where the values at or above v start: ceil(v) on a
// discrete column, v on a real one. The + 0 turns the −0 that math.Ceil
// returns for a value in (−1, 0) into +0.
func (p *parser) atOrAbove(col int, v float64) float64 {
	if p.schema.Cols[col].Kind != Real {
		return math.Ceil(v) + 0
	}
	return v
}

// above returns where the values strictly above v start: floor(v)+1 on a
// discrete column, v on a real one, where the boundary has measure zero.
func (p *parser) above(col int, v float64) float64 {
	if p.schema.Cols[col].Kind != Real {
		return math.Floor(v) + 1
	}
	return v
}

func (p *parser) parseColumn() (int, error) {
	if p.tok.kind != tokIdent {
		return 0, p.errf("expected column name, got %q", p.tok.text)
	}
	idx := p.schema.ColumnIndex(p.tok.text)
	if idx < 0 {
		return 0, p.errf("unknown column %q", p.tok.text)
	}
	p.next()
	return idx, nil
}

func (p *parser) parseNumber() (float64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errf("expected number, got %q", p.tok.text)
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, p.errf("bad number %q: %v", p.tok.text, err)
	}
	p.next()
	return v, nil
}

// flipOp mirrors an operator across its operands (3 < c ⇒ c > 3).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op // =, !=, <> are symmetric
	}
}
