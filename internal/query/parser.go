package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse turns one query statement into its AST.
func Parse(src string) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input at %d: %q", p.peek().pos, p.peek().text)
	}
	return stmt, nil
}

// ParseTransformSpec parses a standalone transformation pipeline such as
// "mavg(20)|reverse()" — the same grammar as the TRANSFORM clause of the
// query language. An empty (or all-blank) spec yields no calls, meaning
// the identity transformation.
func ParseTransformSpec(src string) ([]TransformCall, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if p.peek().kind == tokEOF {
		return nil, nil
	}
	var calls []TransformCall
	for {
		call, err := p.parseTransformCall()
		if err != nil {
			return nil, err
		}
		calls = append(calls, call)
		if p.peek().kind != tokPipe {
			break
		}
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input at %d: %q", p.peek().pos, p.peek().text)
	}
	return calls, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("query: expected %v at %d, got %q", kind, t.pos, t.text)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !keywordIs(t, kw) {
		return fmt.Errorf("query: expected %s at %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad number %q at %d", t.text, t.pos)
	}
	return v, nil
}

func (p *parser) parseStatement() (*Statement, error) {
	head := p.next()
	explain, trace := false, false
	for {
		if keywordIs(head, "EXPLAIN") && !explain {
			explain = true
			head = p.next()
			continue
		}
		if keywordIs(head, "TRACE") && !trace {
			trace = true
			head = p.next()
			continue
		}
		break
	}
	var (
		stmt *Statement
		err  error
	)
	switch {
	case keywordIs(head, "RANGE"):
		stmt, err = p.parseRange()
	case keywordIs(head, "NN"):
		stmt, err = p.parseNN()
	case keywordIs(head, "SELFJOIN"):
		stmt, err = p.parseSelfJoin()
	case keywordIs(head, "JOIN"):
		stmt, err = p.parseJoin()
	default:
		return nil, fmt.Errorf("query: expected RANGE, NN, SELFJOIN, or JOIN at %d, got %q", head.pos, head.text)
	}
	if err != nil {
		return nil, err
	}
	stmt.Explain = explain
	stmt.Trace = trace
	return stmt, nil
}

func (p *parser) parseSource(stmt *Statement) error {
	t := p.next()
	switch {
	case keywordIs(t, "SERIES"):
		name, err := p.expect(tokString)
		if err != nil {
			return err
		}
		stmt.SeriesName = name.text
		return nil
	case keywordIs(t, "VALUES"):
		if _, err := p.expect(tokLParen); err != nil {
			return err
		}
		for {
			v, err := p.number()
			if err != nil {
				return err
			}
			stmt.Literal = append(stmt.Literal, v)
			sep := p.next()
			if sep.kind == tokRParen {
				return nil
			}
			if sep.kind != tokComma {
				return fmt.Errorf("query: expected ',' or ')' at %d, got %q", sep.pos, sep.text)
			}
		}
	default:
		return fmt.Errorf("query: expected SERIES or VALUES at %d, got %q", t.pos, t.text)
	}
}

func (p *parser) parseRange() (*Statement, error) {
	stmt := &Statement{Kind: StmtRange, Exec: ExecAuto}
	if err := p.parseSource(stmt); err != nil {
		return nil, err
	}
	// WITHIN is an EPS synonym: it reads naturally with the CONFIDENCE
	// sugar ("WITHIN 2.5 CONFIDENCE 0.9") but is accepted everywhere.
	if t := p.next(); !keywordIs(t, "EPS") && !keywordIs(t, "WITHIN") {
		return nil, fmt.Errorf("query: expected EPS or WITHIN at %d, got %q", t.pos, t.text)
	}
	eps, err := p.number()
	if err != nil {
		return nil, err
	}
	stmt.Eps = eps
	if err := p.parseTail(stmt); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseNN() (*Statement, error) {
	stmt := &Statement{Kind: StmtNN, Exec: ExecAuto}
	if err := p.parseSource(stmt); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("K"); err != nil {
		return nil, err
	}
	k, err := p.number()
	if err != nil {
		return nil, err
	}
	if k != float64(int(k)) || k < 1 {
		return nil, fmt.Errorf("query: K must be a positive integer, got %g", k)
	}
	stmt.K = int(k)
	if err := p.parseTail(stmt); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseSelfJoin() (*Statement, error) {
	// No METHOD clause means USING AUTO: the planner chooses the join
	// method and each qualifying pair is reported once.
	stmt := &Statement{Kind: StmtSelfJoin, Exec: ExecAuto}
	if err := p.expectKeyword("EPS"); err != nil {
		return nil, err
	}
	eps, err := p.number()
	if err != nil {
		return nil, err
	}
	stmt.Eps = eps
	if err := p.parseTail(stmt); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseJoin() (*Statement, error) {
	stmt := &Statement{Kind: StmtJoin, Exec: ExecAuto}
	if err := p.expectKeyword("EPS"); err != nil {
		return nil, err
	}
	eps, err := p.number()
	if err != nil {
		return nil, err
	}
	stmt.Eps = eps
	if err := p.parseTail(stmt); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseTail handles the optional trailing clauses common to all statements:
// TRANSFORM, USING, METHOD, MEAN, STD, APPROX, CONFIDENCE — in any order.
func (p *parser) parseTail(stmt *Statement) error {
	approxSet, confidenceSet := false, false
	for {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return nil
		case keywordIs(t, "APPROX"):
			if stmt.Kind == StmtSelfJoin || stmt.Kind == StmtJoin {
				return fmt.Errorf("query: APPROX applies to RANGE and NN only (at %d)", t.pos)
			}
			if confidenceSet {
				return fmt.Errorf("query: APPROX and CONFIDENCE are mutually exclusive (at %d)", t.pos)
			}
			if approxSet {
				return fmt.Errorf("query: duplicate APPROX clause (at %d)", t.pos)
			}
			p.next()
			d, err := p.number()
			if err != nil {
				return err
			}
			if d < 0 {
				return fmt.Errorf("query: APPROX delta must be >= 0, got %g", d)
			}
			stmt.Delta = d
			approxSet = true
		case keywordIs(t, "CONFIDENCE"):
			// Sugar for APPROX (1-c): "WITHIN 2.5 CONFIDENCE 0.9" reads as
			// "within eps at 90% confidence", i.e. delta = 0.1.
			if stmt.Kind == StmtSelfJoin || stmt.Kind == StmtJoin {
				return fmt.Errorf("query: CONFIDENCE applies to RANGE and NN only (at %d)", t.pos)
			}
			if approxSet {
				return fmt.Errorf("query: APPROX and CONFIDENCE are mutually exclusive (at %d)", t.pos)
			}
			if confidenceSet {
				return fmt.Errorf("query: duplicate CONFIDENCE clause (at %d)", t.pos)
			}
			p.next()
			c, err := p.number()
			if err != nil {
				return err
			}
			if c <= 0 || c > 1 {
				return fmt.Errorf("query: CONFIDENCE must be in (0, 1], got %g", c)
			}
			stmt.Delta = 1 - c
			confidenceSet = true
		case keywordIs(t, "TRANSFORM"):
			if stmt.Kind == StmtJoin {
				return fmt.Errorf("query: JOIN takes LEFT and RIGHT pipelines, not TRANSFORM (at %d)", t.pos)
			}
			p.next()
			if err := p.parseTransformPipeline(stmt, &stmt.Transform); err != nil {
				return err
			}
		case keywordIs(t, "LEFT"), keywordIs(t, "RIGHT"):
			if stmt.Kind != StmtJoin {
				return fmt.Errorf("query: %s clause only applies to JOIN (at %d)", strings.ToUpper(t.text), t.pos)
			}
			into := &stmt.LeftTransform
			if keywordIs(t, "RIGHT") {
				into = &stmt.RightTransform
			}
			p.next()
			if err := p.parseTransformPipeline(stmt, into); err != nil {
				return err
			}
		case keywordIs(t, "BOTH"):
			if stmt.Kind == StmtSelfJoin || stmt.Kind == StmtJoin {
				return fmt.Errorf("query: BOTH is implicit in joins (at %d)", t.pos)
			}
			p.next()
			stmt.Both = true
		case keywordIs(t, "USING"):
			if stmt.JoinMethod != "" {
				return fmt.Errorf("query: METHOD and USING are mutually exclusive (at %d)", t.pos)
			}
			p.next()
			u := p.next()
			switch {
			case keywordIs(u, "INDEX"):
				stmt.Exec = ExecIndex
			case keywordIs(u, "SCAN"):
				stmt.Exec = ExecScan
			case keywordIs(u, "SCANTIME"):
				stmt.Exec = ExecScanTime
			case keywordIs(u, "AUTO"):
				stmt.Exec = ExecAuto
			default:
				return fmt.Errorf("query: expected AUTO, INDEX, SCAN, or SCANTIME at %d, got %q", u.pos, u.text)
			}
			stmt.UsingSet = true
		case keywordIs(t, "METHOD"):
			if stmt.Kind != StmtSelfJoin {
				return fmt.Errorf("query: METHOD clause only applies to SELFJOIN (at %d)", t.pos)
			}
			if stmt.UsingSet {
				return fmt.Errorf("query: METHOD and USING are mutually exclusive (at %d)", t.pos)
			}
			p.next()
			m := p.next()
			letter := strings.ToLower(m.text)
			if m.kind != tokIdent || len(letter) != 1 || letter[0] < 'a' || letter[0] > 'd' {
				return fmt.Errorf("query: METHOD must be one of a, b, c, d at %d, got %q", m.pos, m.text)
			}
			stmt.JoinMethod = letter
		case keywordIs(t, "LIMIT"):
			p.next()
			v, err := p.number()
			if err != nil {
				return err
			}
			if v != float64(int(v)) || v < 1 {
				return fmt.Errorf("query: LIMIT must be a positive integer, got %g", v)
			}
			stmt.Limit = int(v)
		case keywordIs(t, "MEAN"):
			p.next()
			b, err := p.parseBounds()
			if err != nil {
				return err
			}
			stmt.MeanBounds = b
		case keywordIs(t, "STD"):
			p.next()
			b, err := p.parseBounds()
			if err != nil {
				return err
			}
			stmt.StdBounds = b
		default:
			return fmt.Errorf("query: unexpected clause at %d: %q", t.pos, t.text)
		}
	}
}

func (p *parser) parseBounds() (*[2]float64, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	lo, err := p.number()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return nil, err
	}
	hi, err := p.number()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, fmt.Errorf("query: bounds [%g, %g] are inverted", lo, hi)
	}
	return &[2]float64{lo, hi}, nil
}

func (p *parser) parseTransformPipeline(stmt *Statement, into *[]TransformCall) error {
	for {
		call, err := p.parseTransformCall()
		if err != nil {
			return err
		}
		*into = append(*into, call)
		if p.peek().kind != tokPipe {
			return nil
		}
		p.next()
	}
}

func (p *parser) parseTransformCall() (TransformCall, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return TransformCall{}, err
	}
	call := TransformCall{Name: strings.ToLower(name.text)}
	if _, err := p.expect(tokLParen); err != nil {
		return TransformCall{}, err
	}
	if p.peek().kind == tokRParen {
		p.next()
		return call, nil
	}
	for {
		v, err := p.number()
		if err != nil {
			return TransformCall{}, err
		}
		call.Args = append(call.Args, v)
		sep := p.next()
		if sep.kind == tokRParen {
			return call, nil
		}
		if sep.kind != tokComma {
			return TransformCall{}, fmt.Errorf("query: expected ',' or ')' at %d, got %q", sep.pos, sep.text)
		}
	}
}
