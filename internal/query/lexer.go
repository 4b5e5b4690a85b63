// Package query is the syntax of a small declarative query language over
// the similarity engine — the "query language" framing of the paper's
// Section 3, where transformations are first-class expressions a user
// composes inside range, nearest-neighbor, and join queries:
//
//	RANGE SERIES 'IBM' EPS 2.5 TRANSFORM mavg(20) USING INDEX
//	RANGE VALUES (20, 21, 20, 23) EPS 1.0 TRANSFORM warp(2)
//	NN SERIES 'BBA' K 5 TRANSFORM reverse() | mavg(20)
//	SELFJOIN EPS 1.0 TRANSFORM mavg(20) METHOD d
//	RANGE SERIES 'ZTR' EPS 3 MEAN [5, 15] STD [0.5, 2]
//
// Keywords are case-insensitive; series names are single-quoted strings;
// transformations compose left-to-right with '|'.
//
// The package is lexer, parser and AST only and imports nothing but the
// standard library: a Statement is given its meaning by the root package,
// which compiles it to the same read its typed methods build.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokPipe
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokPipe:
		return "'|'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits the input into tokens.
func lex(src string) ([]token, error) {
	var out []token
	i := 0
	n := len(src)
	for i < n {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(':
			out = append(out, token{tokLParen, "(", i})
			i++
		case c == ')':
			out = append(out, token{tokRParen, ")", i})
			i++
		case c == '[':
			out = append(out, token{tokLBracket, "[", i})
			i++
		case c == ']':
			out = append(out, token{tokRBracket, "]", i})
			i++
		case c == ',':
			out = append(out, token{tokComma, ",", i})
			i++
		case c == '|':
			out = append(out, token{tokPipe, "|", i})
			i++
		case c == '\'':
			j := i + 1
			for j < n && src[j] != '\'' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("query: unterminated string starting at %d", i)
			}
			out = append(out, token{tokString, src[i+1 : j], i})
			i = j + 1
		case c == '-' || c == '+' || c == '.' || unicode.IsDigit(c):
			j := i
			if src[j] == '-' || src[j] == '+' {
				j++
			}
			digits := false
			for j < n && (unicode.IsDigit(rune(src[j])) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '-' || src[j] == '+') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				if unicode.IsDigit(rune(src[j])) {
					digits = true
				}
				j++
			}
			if !digits {
				return nil, fmt.Errorf("query: malformed number at %d", i)
			}
			out = append(out, token{tokNumber, src[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < n && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			out = append(out, token{tokIdent, src[i:j], i})
			i = j
		case c == ';':
			i++ // trailing statement terminator is tolerated
		default:
			return nil, fmt.Errorf("query: unexpected character %q at %d", c, i)
		}
	}
	out = append(out, token{tokEOF, "", n})
	return out, nil
}

// keywordIs reports case-insensitive identifier equality.
func keywordIs(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
