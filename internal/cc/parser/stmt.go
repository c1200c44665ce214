package parser

import (
	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
)

// block parses a brace-enclosed statement list.
func (p *Parser) block() *ast.Block {
	b := &ast.Block{}
	b.P = p.expect(token.LBrace).Pos
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		start := p.pos
		s := p.stmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == start {
			p.next() // guarantee progress on malformed input
		}
	}
	p.expect(token.RBrace)
	return b
}

// stmt parses one statement. Local declarations yield one or more
// DeclStmt nodes wrapped in a Block when a single declaration declares
// several names (keeps Stmt cardinality simple for the CFG).
func (p *Parser) stmt() ast.Stmt {
	pos := p.cur().Pos
	if !p.enter() {
		e := &ast.Empty{}
		e.P = pos
		return e
	}
	defer p.leave()
	switch p.kind() {
	case token.LBrace:
		return p.block()
	case token.Semi:
		p.next()
		e := &ast.Empty{}
		e.P = pos
		return e
	case token.KwIf:
		p.next()
		p.expect(token.LParen)
		cond := p.expr()
		p.expect(token.RParen)
		s := &ast.If{Cond: cond, Then: p.stmt()}
		s.P = pos
		if p.accept(token.KwElse) {
			s.Else = p.stmt()
		}
		return s
	case token.KwWhile:
		p.next()
		p.expect(token.LParen)
		cond := p.expr()
		p.expect(token.RParen)
		s := &ast.While{Cond: cond, Body: p.stmt()}
		s.P = pos
		return s
	case token.KwDo:
		p.next()
		body := p.stmt()
		p.expect(token.KwWhile)
		p.expect(token.LParen)
		cond := p.expr()
		p.expect(token.RParen)
		p.expect(token.Semi)
		s := &ast.DoWhile{Body: body, Cond: cond}
		s.P = pos
		return s
	case token.KwFor:
		p.next()
		p.expect(token.LParen)
		s := &ast.For{}
		s.P = pos
		if !p.at(token.Semi) {
			if p.isTypeName(0) {
				s.Init = p.localDecl()
			} else {
				es := &ast.ExprStmt{X: p.expr()}
				es.P = pos
				s.Init = es
				p.expect(token.Semi)
			}
		} else {
			p.next()
		}
		if !p.at(token.Semi) {
			s.Cond = p.expr()
		}
		p.expect(token.Semi)
		if !p.at(token.RParen) {
			s.Post = p.expr()
		}
		p.expect(token.RParen)
		s.Body = p.stmt()
		return s
	case token.KwSwitch:
		p.next()
		p.expect(token.LParen)
		tag := p.expr()
		p.expect(token.RParen)
		s := &ast.Switch{Tag: tag, Body: p.block()}
		s.P = pos
		return s
	case token.KwCase:
		p.next()
		v := p.condExpr()
		p.expect(token.Colon)
		s := &ast.Case{Value: v}
		s.P = pos
		return s
	case token.KwDefault:
		p.next()
		p.expect(token.Colon)
		s := &ast.Case{}
		s.P = pos
		return s
	case token.KwBreak:
		p.next()
		p.expect(token.Semi)
		s := &ast.Break{}
		s.P = pos
		return s
	case token.KwContinue:
		p.next()
		p.expect(token.Semi)
		s := &ast.Continue{}
		s.P = pos
		return s
	case token.KwReturn:
		p.next()
		s := &ast.Return{}
		s.P = pos
		if !p.at(token.Semi) {
			s.X = p.expr()
		}
		p.expect(token.Semi)
		return s
	case token.KwGoto:
		p.next()
		s := &ast.Goto{Label: p.expect(token.Ident).Text}
		s.P = pos
		p.expect(token.Semi)
		return s
	case token.Ident:
		// label?
		if p.peekKind(1) == token.Colon {
			name := p.next().Text
			p.next() // ':'
			s := &ast.Labeled{Label: name, Stmt: p.stmt()}
			s.P = pos
			return s
		}
		if p.isTypeName(0) && p.declFollows(1) {
			return p.localDecl()
		}
		return p.exprStmt()
	default:
		if p.isTypeName(0) {
			return p.localDecl()
		}
		return p.exprStmt()
	}
}

// declFollows disambiguates "T x" (declaration) from "t * x" style
// expressions when T is a typedef name at offset 0. Offset n is the
// token after the typedef name.
func (p *Parser) declFollows(n int) bool {
	for p.peekKind(n) == token.Star {
		n++
	}
	return p.peekKind(n) == token.Ident
}

func (p *Parser) exprStmt() ast.Stmt {
	pos := p.cur().Pos
	e := p.expr()
	p.expect(token.Semi)
	s := &ast.ExprStmt{X: e}
	s.P = pos
	return s
}

// localDecl parses a local declaration statement; multiple declarators
// become a Block of DeclStmts (transparent to the CFG builder).
func (p *Parser) localDecl() ast.Stmt {
	pos := p.cur().Pos
	storage, _, base, isConst := p.declSpecifiers()
	var stmts []ast.Stmt
	for {
		dpos := p.cur().Pos
		name, t, _, _, isFunc := p.declarator(base)
		if isFunc {
			// Local function prototype; model as a no-op declaration.
			vd := &ast.VarDecl{Name: name, T: t, Storage: storage}
			vd.P = dpos
			ds := &ast.DeclStmt{Decl: vd}
			ds.P = dpos
			stmts = append(stmts, ds)
		} else {
			vd := &ast.VarDecl{Name: name, T: t, Storage: storage, Const: isConst}
			vd.P = dpos
			if p.accept(token.Assign) {
				vd.Init = p.initializer()
			}
			ds := &ast.DeclStmt{Decl: vd}
			ds.P = dpos
			stmts = append(stmts, ds)
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	if len(stmts) == 1 {
		return stmts[0]
	}
	b := &ast.Block{Stmts: stmts}
	b.P = pos
	return b
}
