package asm

import "fmt"

// Expr is a constant expression evaluated during assembly.
type Expr interface {
	// eval computes the expression value using syms for symbol lookup.
	eval(syms SymbolTable) (int64, error)
}

// SymbolTable resolves symbol names during expression evaluation.
type SymbolTable interface {
	Lookup(name string) (int64, bool)
}

// MapSymbols is a SymbolTable backed by a map.
type MapSymbols map[string]int64

// Lookup implements SymbolTable.
func (m MapSymbols) Lookup(name string) (int64, bool) {
	v, ok := m[name]
	return v, ok
}

// NumExpr is an integer literal.
type NumExpr struct{ Value int64 }

// eval implements Expr.
func (e NumExpr) eval(SymbolTable) (int64, error) { return e.Value, nil }

// SymExpr is a symbol reference (label or .equ constant).
type SymExpr struct{ Name string }

// eval implements Expr.
func (e SymExpr) eval(syms SymbolTable) (int64, error) {
	if syms == nil {
		return 0, fmt.Errorf("undefined symbol %q", e.Name)
	}
	v, ok := syms.Lookup(e.Name)
	if !ok {
		return 0, fmt.Errorf("undefined symbol %q", e.Name)
	}
	return v, nil
}

// UnExpr is a unary operation: - or ~.
type UnExpr struct {
	Op rune
	X  Expr
}

// eval implements Expr.
func (e UnExpr) eval(syms SymbolTable) (int64, error) {
	v, err := e.X.eval(syms)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case '-':
		return -v, nil
	case '~':
		return ^v, nil
	default:
		return 0, fmt.Errorf("unknown unary operator %q", e.Op)
	}
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op string // + - * / % & | ^ << >>
	X  Expr
	Y  Expr
}

// eval implements Expr.
func (e BinExpr) eval(syms SymbolTable) (int64, error) {
	x, err := e.X.eval(syms)
	if err != nil {
		return 0, err
	}
	y, err := e.Y.eval(syms)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case "+":
		return x + y, nil
	case "-":
		return x - y, nil
	case "*":
		return x * y, nil
	case "/":
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return x / y, nil
	case "%":
		if y == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return x % y, nil
	case "&":
		return x & y, nil
	case "|":
		return x | y, nil
	case "^":
		return x ^ y, nil
	case "<<":
		if y < 0 || y > 63 {
			return 0, fmt.Errorf("shift amount %d out of range", y)
		}
		return x << uint(y), nil
	case ">>":
		if y < 0 || y > 63 {
			return 0, fmt.Errorf("shift amount %d out of range", y)
		}
		return x >> uint(y), nil
	default:
		return 0, fmt.Errorf("unknown operator %q", e.Op)
	}
}

// exprParser parses constant expressions from a token stream with this
// precedence ladder (loosest first): | ^ &, << >>, + -, * / %, unary.
type exprParser struct {
	pos  Pos
	toks []token
	i    int
}

func (p *exprParser) peek() token   { return p.toks[p.i] }
func (p *exprParser) next() token   { t := p.toks[p.i]; p.i++; return t }
func (p *exprParser) atEnd() bool   { return p.toks[p.i].kind == tokEOF }
func (p *exprParser) save() int     { return p.i }
func (p *exprParser) restore(i int) { p.i = i }

func (p *exprParser) acceptPunct(s string) bool {
	t := p.peek()
	if (t.kind == tokPunct && t.text == s) ||
		(t.kind == tokShl && s == "<<") ||
		(t.kind == tokShr && s == ">>") {
		p.i++
		return true
	}
	return false
}

func (p *exprParser) parseExpr() (Expr, error) {
	return p.parseBinary(0)
}

var precLevels = [][]string{
	{"|", "^"},
	{"&"},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *exprParser) parseBinary(level int) (Expr, error) {
	if level == len(precLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precLevels[level] {
			if p.acceptPunct(op) {
				y, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				x = BinExpr{Op: op, X: x, Y: y}
				matched = true
				break
			}
		}
		if !matched {
			return x, nil
		}
	}
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.acceptPunct("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnExpr{Op: '-', X: x}, nil
	}
	if p.acceptPunct("~") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnExpr{Op: '~', X: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return NumExpr{Value: t.val}, nil
	case tokIdent:
		p.next()
		return SymExpr{Name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptPunct(")") {
				return nil, errf(p.pos, "missing closing parenthesis")
			}
			return x, nil
		}
	}
	return nil, errf(p.pos, "expected expression, found %q", t.text)
}
