// Package hlspec is a small behavioral front-end for CHOP: a textual
// specification language with arithmetic expressions, memory accesses and
// counted inner loops, compiled to the acyclic data-flow graphs package dfg
// expects. Loops with determinate iteration counts are fully unrolled, as
// paper section 2.3 prescribes ("Inner loops with determinate iteration
// counts can be unrolled so that the resulting data flow graph is acyclic").
//
// Grammar (line oriented; '#' starts a comment):
//
//	input  a, b, c          declare primary inputs
//	output x, y             declare primary outputs (of defined variables)
//	x = expr                assignment (single static assignment per loop
//	                        iteration; reassignment creates a new version)
//	x = read(MEM)           memory read from block MEM
//	write(MEM, expr)        memory write to block MEM
//	loop N { ... }          repeat the body N times (nesting allowed)
//
// Expressions use + - * / with the usual precedence, parentheses, integer
// constants and lt(a, b) for comparison. Constant subexpressions fold at
// compile time; an operation with one constant operand becomes a
// coefficient operation (the constant is attached to the node for
// simulation).
package hlspec

import (
	"fmt"
	"strconv"
	"strings"

	"chop/internal/dfg"
)

// Bounds on what one program may unroll to. Specs arrive over the serve
// API, so a few bytes of nested loop counts must not become unbounded work.
const (
	// maxNodes caps the unrolled graph, outputs included.
	maxNodes = 1 << 16
	// maxWork caps the statement bytes processed while unrolling, plus one
	// per loop iteration: an empty or constant-only body adds no nodes but
	// still costs time.
	maxWork = 1 << 22
)

// Compile parses and lowers a specification to a validated graph.
// Programs that unroll past maxNodes nodes or maxWork work are rejected.
func Compile(name, src string, width int) (*dfg.Graph, error) {
	p := &parser{width: width, g: dfg.New(name), vars: map[string]value{}}
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if err := p.block(lines); err != nil {
		return nil, err
	}
	if err := p.emitOutputs(); err != nil {
		return nil, err
	}
	if err := p.g.Validate(); err != nil {
		return nil, err
	}
	return p.g, nil
}

// value is either a graph node or a compile-time constant.
type value struct {
	node    int
	c       int64
	isConst bool
}

type parser struct {
	width   int
	g       *dfg.Graph
	vars    map[string]value
	outputs []string
	nameSeq int
	work    int // unrolling work charged so far, see maxWork
}

// line is one logical statement; loops carry their body.
type line struct {
	no   int
	text string
	body []line
}

// splitLines tokenizes the source into statements, grouping loop bodies.
func splitLines(src string) ([]line, error) {
	var raw []line
	for i, l := range strings.Split(src, "\n") {
		if idx := strings.IndexByte(l, '#'); idx >= 0 {
			l = l[:idx]
		}
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		raw = append(raw, line{no: i + 1, text: l})
	}
	lines, rest, err := group(raw)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("hlspec: line %d: unexpected '}'", rest[0].no)
	}
	return lines, nil
}

// group nests loop bodies; it returns when it hits an unmatched '}'.
func group(raw []line) (out, rest []line, err error) {
	for len(raw) > 0 {
		l := raw[0]
		raw = raw[1:]
		if l.text == "}" {
			return out, append([]line{l}, raw...), nil
		}
		if strings.HasPrefix(l.text, "loop ") || l.text == "loop" {
			if !strings.HasSuffix(l.text, "{") {
				return nil, nil, fmt.Errorf("hlspec: line %d: loop must end with '{'", l.no)
			}
			body, r2, err := group(raw)
			if err != nil {
				return nil, nil, err
			}
			if len(r2) == 0 || r2[0].text != "}" {
				return nil, nil, fmt.Errorf("hlspec: line %d: unterminated loop", l.no)
			}
			l.body = body
			raw = r2[1:]
		}
		out = append(out, l)
	}
	return out, nil, nil
}

func (p *parser) block(lines []line) error {
	for _, l := range lines {
		if err := p.charge(l.no, len(l.text)); err != nil {
			return err
		}
		if err := p.stmt(l); err != nil {
			return err
		}
	}
	return nil
}

// charge books w units of unrolling work for line lineNo and fails once
// the program passes maxWork or its graph passes maxNodes.
func (p *parser) charge(lineNo, w int) error {
	p.work += w
	if p.work > maxWork || len(p.g.Nodes)+len(p.outputs) > maxNodes {
		return fmt.Errorf("hlspec: line %d: program unrolls past %d nodes or %d work units", lineNo, maxNodes, maxWork)
	}
	return nil
}

func (p *parser) stmt(l line) error {
	t := l.text
	switch {
	case strings.HasPrefix(t, "input "):
		for _, name := range splitNames(t[len("input "):]) {
			if _, dup := p.vars[name]; dup {
				return fmt.Errorf("hlspec: line %d: %q already defined", l.no, name)
			}
			id := p.g.AddNode(name, dfg.OpInput, p.width)
			p.vars[name] = value{node: id}
		}
		return nil
	case strings.HasPrefix(t, "output "):
		p.outputs = append(p.outputs, splitNames(t[len("output "):])...)
		return nil
	case strings.HasPrefix(t, "loop"):
		fields := strings.Fields(strings.TrimSuffix(t, "{"))
		if len(fields) != 2 {
			return fmt.Errorf("hlspec: line %d: loop <count> {", l.no)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return fmt.Errorf("hlspec: line %d: bad loop count %q", l.no, fields[1])
		}
		// Determinate iteration count: unroll (paper 2.3). Reassignments in
		// the body naturally chain loop-carried values across iterations.
		for i := 0; i < n; i++ {
			if err := p.charge(l.no, 1); err != nil {
				return err
			}
			if err := p.block(l.body); err != nil {
				return err
			}
		}
		return nil
	case strings.HasPrefix(t, "write(") && strings.HasSuffix(t, ")"):
		inner := t[len("write(") : len(t)-1]
		comma := strings.IndexByte(inner, ',')
		if comma < 0 {
			return fmt.Errorf("hlspec: line %d: write(MEM, expr)", l.no)
		}
		memName := strings.TrimSpace(inner[:comma])
		v, err := p.expr(l.no, strings.TrimSpace(inner[comma+1:]))
		if err != nil {
			return err
		}
		src, err := p.materialize(v)
		if err != nil {
			return fmt.Errorf("%w (line %d)", err, l.no)
		}
		id := p.g.AddMemNode(p.fresh("wr_"+memName), dfg.OpMemWr, p.width, memName)
		p.g.MustConnect(src, id)
		return nil
	}
	// assignment: name = expr | name = read(MEM)
	eq := strings.IndexByte(t, '=')
	if eq < 0 {
		return fmt.Errorf("hlspec: line %d: cannot parse %q", l.no, t)
	}
	name := strings.TrimSpace(t[:eq])
	if !isIdent(name) {
		return fmt.Errorf("hlspec: line %d: bad variable name %q", l.no, name)
	}
	rhs := strings.TrimSpace(t[eq+1:])
	if strings.HasPrefix(rhs, "read(") && strings.HasSuffix(rhs, ")") {
		memName := strings.TrimSpace(rhs[len("read(") : len(rhs)-1])
		id := p.g.AddMemNode(p.fresh("rd_"+memName), dfg.OpMemRd, p.width, memName)
		p.vars[name] = value{node: id}
		return nil
	}
	v, err := p.expr(l.no, rhs)
	if err != nil {
		return err
	}
	p.vars[name] = v
	return nil
}

func (p *parser) emitOutputs() error {
	for _, name := range p.outputs {
		v, ok := p.vars[name]
		if !ok {
			return fmt.Errorf("hlspec: output %q never defined", name)
		}
		src, err := p.materialize(v)
		if err != nil {
			return fmt.Errorf("%w (output %q)", err, name)
		}
		id := p.g.AddNode("out_"+name+p.suffix(), dfg.OpOutput, p.width)
		p.g.MustConnect(src, id)
	}
	return nil
}

// suffix disambiguates repeated output names.
func (p *parser) suffix() string {
	p.nameSeq++
	return fmt.Sprintf("_%d", p.nameSeq)
}

func (p *parser) fresh(prefix string) string {
	p.nameSeq++
	return fmt.Sprintf("%s_%d", prefix, p.nameSeq)
}

// materialize returns the node of a value; pure compile-time constants
// cannot anchor hardware (there is nothing to compute or transfer), so
// outputting or storing a bare constant is rejected.
func (p *parser) materialize(v value) (int, error) {
	if v.isConst {
		return 0, fmt.Errorf("hlspec: constant expressions cannot be written or output directly")
	}
	return v.node, nil
}

// ---- expression parsing (recursive descent) ----

type lexer struct {
	toks []string
	pos  int
	line int
}

func lex(lineNo int, s string) (*lexer, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case strings.IndexByte("+-*/(),", c) >= 0:
			toks = append(toks, string(c))
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case isIdentByte(c):
			j := i
			for j < len(s) && (isIdentByte(s[j]) || s[j] >= '0' && s[j] <= '9') {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			return nil, fmt.Errorf("hlspec: line %d: bad character %q", lineNo, c)
		}
	}
	return &lexer{toks: toks, line: lineNo}, nil
}

func (lx *lexer) peek() string {
	if lx.pos < len(lx.toks) {
		return lx.toks[lx.pos]
	}
	return ""
}

func (lx *lexer) next() string {
	t := lx.peek()
	lx.pos++
	return t
}

func (p *parser) expr(lineNo int, s string) (value, error) {
	lx, err := lex(lineNo, s)
	if err != nil {
		return value{}, err
	}
	v, err := p.sum(lx)
	if err != nil {
		return value{}, err
	}
	if lx.peek() != "" {
		return value{}, fmt.Errorf("hlspec: line %d: trailing %q", lineNo, lx.peek())
	}
	return v, nil
}

func (p *parser) sum(lx *lexer) (value, error) {
	v, err := p.term(lx)
	if err != nil {
		return value{}, err
	}
	for lx.peek() == "+" || lx.peek() == "-" {
		op := lx.next()
		rhs, err := p.term(lx)
		if err != nil {
			return value{}, err
		}
		v, err = p.combine(lx.line, op, v, rhs)
		if err != nil {
			return value{}, err
		}
	}
	return v, nil
}

func (p *parser) term(lx *lexer) (value, error) {
	v, err := p.factor(lx)
	if err != nil {
		return value{}, err
	}
	for lx.peek() == "*" || lx.peek() == "/" {
		op := lx.next()
		rhs, err := p.factor(lx)
		if err != nil {
			return value{}, err
		}
		v, err = p.combine(lx.line, op, v, rhs)
		if err != nil {
			return value{}, err
		}
	}
	return v, nil
}

func (p *parser) factor(lx *lexer) (value, error) {
	t := lx.next()
	switch {
	case t == "":
		return value{}, fmt.Errorf("hlspec: line %d: unexpected end of expression", lx.line)
	case t == "(":
		v, err := p.sum(lx)
		if err != nil {
			return value{}, err
		}
		if lx.next() != ")" {
			return value{}, fmt.Errorf("hlspec: line %d: missing ')'", lx.line)
		}
		return v, nil
	case t == "lt":
		if lx.next() != "(" {
			return value{}, fmt.Errorf("hlspec: line %d: lt(a, b)", lx.line)
		}
		a, err := p.sum(lx)
		if err != nil {
			return value{}, err
		}
		if lx.next() != "," {
			return value{}, fmt.Errorf("hlspec: line %d: lt(a, b)", lx.line)
		}
		b, err := p.sum(lx)
		if err != nil {
			return value{}, err
		}
		if lx.next() != ")" {
			return value{}, fmt.Errorf("hlspec: line %d: lt(a, b)", lx.line)
		}
		return p.combine(lx.line, "lt", a, b)
	case t[0] >= '0' && t[0] <= '9':
		c, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return value{}, fmt.Errorf("hlspec: line %d: bad number %q", lx.line, t)
		}
		return value{c: c, isConst: true}, nil
	case isIdent(t):
		v, ok := p.vars[t]
		if !ok {
			return value{}, fmt.Errorf("hlspec: line %d: undefined variable %q", lx.line, t)
		}
		return v, nil
	default:
		return value{}, fmt.Errorf("hlspec: line %d: unexpected token %q", lx.line, t)
	}
}

var opFor = map[string]dfg.Op{
	"+": dfg.OpAdd, "-": dfg.OpSub, "*": dfg.OpMul, "/": dfg.OpDiv, "lt": dfg.OpCmp,
}

// combine lowers one binary operation, folding constants and attaching a
// constant operand as the node coefficient.
func (p *parser) combine(lineNo int, op string, a, b value) (value, error) {
	if a.isConst && b.isConst {
		switch op {
		case "+":
			return value{c: a.c + b.c, isConst: true}, nil
		case "-":
			return value{c: a.c - b.c, isConst: true}, nil
		case "*":
			return value{c: a.c * b.c, isConst: true}, nil
		case "/":
			if b.c == 0 {
				return value{}, fmt.Errorf("hlspec: line %d: division by zero constant", lineNo)
			}
			return value{c: a.c / b.c, isConst: true}, nil
		case "lt":
			if a.c < b.c {
				return value{c: 1, isConst: true}, nil
			}
			return value{c: 0, isConst: true}, nil
		}
	}
	id := p.g.AddNode(p.fresh(string(opFor[op])), opFor[op], p.width)
	switch {
	case a.isConst:
		// non-commutative ops need the data operand first; record the
		// constant and flip subtraction/division/compare is NOT safe, so
		// only commutative ops accept a leading constant.
		if op == "-" || op == "/" || op == "lt" {
			return value{}, fmt.Errorf("hlspec: line %d: constant must be the right operand of %q", lineNo, op)
		}
		p.g.MustConnect(b.node, id)
		p.g.Nodes[id].Coef = a.c
		p.g.Nodes[id].HasCoef = true
	case b.isConst:
		p.g.MustConnect(a.node, id)
		p.g.Nodes[id].Coef = b.c
		p.g.Nodes[id].HasCoef = true
	default:
		p.g.MustConnect(a.node, id)
		p.g.MustConnect(b.node, id)
	}
	return value{node: id}, nil
}

func splitNames(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func isIdent(s string) bool {
	if s == "" || !isIdentByte(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentByte(s[i]) && !(s[i] >= '0' && s[i] <= '9') {
			return false
		}
	}
	return true
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
