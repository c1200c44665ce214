// Package match implements structural AST pattern matching with
// wildcard binding — the mechanism behind metal patterns. A pattern is
// an ordinary protocol-C AST in which ast.Wildcard nodes act as typed
// holes: they match any expression satisfying their constraint and
// bind it by name. Repeated wildcards must bind structurally equal
// expressions, so a pattern like "memcpy(dst, dst, n)" only matches
// calls whose first two arguments coincide.
//
// Parentheses are transparent on both sides: the pattern "f(x)"
// matches the subject "(f((x)))", mirroring xg++'s source-level
// matching behaviour.
package match

import (
	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/types"
)

// Env carries wildcard bindings accumulated during a match. A nil Env
// is a valid empty environment. Matching never mutates an Env it is
// given: a match that binds nothing new returns the caller's Env, and
// one that does returns a fresh map.
type Env map[string]ast.Expr

// binding is one wildcard bound during the current match attempt.
type binding struct {
	name string
	expr ast.Expr
}

// Matcher matches patterns against subjects without allocating on
// failure. Bindings made during an attempt are pushed on a trail above
// the caller's base Env; a failed attempt is undone by truncating the
// trail, and an Env map is built only when an attempt succeeds. The
// trail is reused across calls, so once it has grown to the deepest
// pattern's wildcard count a failed attempt allocates nothing.
//
// The zero Matcher is ready to use. A Matcher is not safe for
// concurrent use, and must not be copied after first use: its walk
// callback stays bound to the original, so a copy's walks would
// record their hits there.
type Matcher struct {
	base  Env
	trail []binding

	// Walk state of First and Count: the pattern being searched for,
	// the first hit (First) or the number of hits (Count), and visit,
	// the walk callback, bound to this Matcher once so walks allocate
	// no closure.
	pat      ast.Expr
	hit      ast.Expr
	counting bool
	hits     int
	visit    func(ast.Node) bool
}

// lookup returns name's binding in the current attempt.
func (m *Matcher) lookup(name string) (ast.Expr, bool) {
	for i := len(m.trail) - 1; i >= 0; i-- {
		if m.trail[i].name == name {
			return m.trail[i].expr, true
		}
	}
	e, ok := m.base[name]
	return e, ok
}

// env materializes the base Env extended by the trail.
func (m *Matcher) env() Env {
	if len(m.trail) == 0 {
		return m.base
	}
	out := make(Env, len(m.base)+len(m.trail))
	for k, v := range m.base {
		out[k] = v
	}
	for _, b := range m.trail {
		out[b.name] = b.expr
	}
	return out
}

// begin starts an attempt against base env with an empty trail.
func (m *Matcher) begin(env Env) {
	m.base = env
	m.trail = m.trail[:0]
}

// stripParens removes Paren wrappers.
func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}

// matchExpr matches pattern pat against subject subj under env. On
// success it returns the extended environment; env itself is not
// mutated.
func (m *Matcher) matchExpr(pat, subj ast.Expr, env Env) (Env, bool) {
	m.begin(env)
	if m.exprInto(pat, subj) {
		return m.env(), true
	}
	return nil, false
}

func (m *Matcher) exprInto(pat, subj ast.Expr) bool {
	pat = stripParens(pat)
	subj = stripParens(subj)
	if w, ok := pat.(*ast.Wildcard); ok {
		return m.bindWildcard(w, subj)
	}
	switch p := pat.(type) {
	case *ast.Ident:
		s, ok := subj.(*ast.Ident)
		return ok && s.Name == p.Name
	case *ast.IntLit:
		s, ok := subj.(*ast.IntLit)
		return ok && s.Value == p.Value
	case *ast.FloatLit:
		s, ok := subj.(*ast.FloatLit)
		return ok && s.Value == p.Value
	case *ast.CharLit:
		s, ok := subj.(*ast.CharLit)
		return ok && s.Value == p.Value
	case *ast.StringLit:
		s, ok := subj.(*ast.StringLit)
		return ok && s.Value == p.Value
	case *ast.Unary:
		s, ok := subj.(*ast.Unary)
		return ok && s.Op == p.Op && s.Postfix == p.Postfix && m.exprInto(p.X, s.X)
	case *ast.Binary:
		s, ok := subj.(*ast.Binary)
		return ok && s.Op == p.Op && m.exprInto(p.X, s.X) && m.exprInto(p.Y, s.Y)
	case *ast.Assign:
		s, ok := subj.(*ast.Assign)
		return ok && s.Op == p.Op && m.exprInto(p.LHS, s.LHS) && m.exprInto(p.RHS, s.RHS)
	case *ast.Cond:
		s, ok := subj.(*ast.Cond)
		return ok && m.exprInto(p.C, s.C) && m.exprInto(p.Then, s.Then) && m.exprInto(p.Else, s.Else)
	case *ast.Call:
		s, ok := subj.(*ast.Call)
		if !ok || len(s.Args) != len(p.Args) || !m.exprInto(p.Fun, s.Fun) {
			return false
		}
		for i := range p.Args {
			if !m.exprInto(p.Args[i], s.Args[i]) {
				return false
			}
		}
		return true
	case *ast.Index:
		s, ok := subj.(*ast.Index)
		return ok && m.exprInto(p.X, s.X) && m.exprInto(p.Idx, s.Idx)
	case *ast.Member:
		s, ok := subj.(*ast.Member)
		return ok && s.Name == p.Name && s.Arrow == p.Arrow && m.exprInto(p.X, s.X)
	case *ast.Cast:
		s, ok := subj.(*ast.Cast)
		return ok && types.Equal(s.To, p.To) && m.exprInto(p.X, s.X)
	case *ast.SizeofExpr:
		s, ok := subj.(*ast.SizeofExpr)
		return ok && m.exprInto(p.X, s.X)
	case *ast.SizeofType:
		s, ok := subj.(*ast.SizeofType)
		return ok && types.Equal(s.Of, p.Of)
	case *ast.InitList:
		s, ok := subj.(*ast.InitList)
		if !ok || len(s.Elems) != len(p.Elems) {
			return false
		}
		for i := range p.Elems {
			if !m.exprInto(p.Elems[i], s.Elems[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// bindWildcard checks w's constraint against subj and records or
// verifies the binding.
func (m *Matcher) bindWildcard(w *ast.Wildcard, subj ast.Expr) bool {
	if !constraintOK(w.Constraint, subj) {
		return false
	}
	if w.Name == "" || w.Name == "_" {
		return true
	}
	if prev, ok := m.lookup(w.Name); ok {
		return EqualExpr(prev, subj)
	}
	m.trail = append(m.trail, binding{w.Name, subj})
	return true
}

// constraintOK implements the wildcard constraint vocabulary. Unknown
// subject types (unchecked pattern fragments, lenient frontend) are
// accepted for type-based constraints, matching the paper's permissive
// matching of macro-heavy code.
func constraintOK(c string, subj ast.Expr) bool {
	switch c {
	case "", "expr", "any", "node":
		return true
	case "scalar":
		t := subj.Type()
		return t == nil || types.IsScalar(t)
	case "unsigned", "int", "integer":
		t := subj.Type()
		return t == nil || types.IsInteger(t)
	case "float":
		t := subj.Type()
		return t != nil && types.IsFloat(t)
	case "ptr", "pointer":
		t := subj.Type()
		return t == nil || types.IsPointer(t)
	case "const":
		switch subj.(type) {
		case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.StringLit:
			return true
		}
		return false
	case "id":
		_, ok := subj.(*ast.Ident)
		return ok
	default:
		// Unknown constraint names are permissive; metal's compiler
		// validates them at checker-compile time.
		return true
	}
}

// EqualExpr reports structural equality of two expressions (parens
// transparent, wildcards compare by name).
func EqualExpr(a, b ast.Expr) bool {
	a, b = stripParens(a), stripParens(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.IntLit:
		y, ok := b.(*ast.IntLit)
		return ok && x.Value == y.Value
	case *ast.FloatLit:
		y, ok := b.(*ast.FloatLit)
		return ok && x.Value == y.Value
	case *ast.CharLit:
		y, ok := b.(*ast.CharLit)
		return ok && x.Value == y.Value
	case *ast.StringLit:
		y, ok := b.(*ast.StringLit)
		return ok && x.Value == y.Value
	case *ast.Unary:
		y, ok := b.(*ast.Unary)
		return ok && x.Op == y.Op && x.Postfix == y.Postfix && EqualExpr(x.X, y.X)
	case *ast.Binary:
		y, ok := b.(*ast.Binary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X) && EqualExpr(x.Y, y.Y)
	case *ast.Assign:
		y, ok := b.(*ast.Assign)
		return ok && x.Op == y.Op && EqualExpr(x.LHS, y.LHS) && EqualExpr(x.RHS, y.RHS)
	case *ast.Cond:
		y, ok := b.(*ast.Cond)
		return ok && EqualExpr(x.C, y.C) && EqualExpr(x.Then, y.Then) && EqualExpr(x.Else, y.Else)
	case *ast.Call:
		y, ok := b.(*ast.Call)
		if !ok || len(x.Args) != len(y.Args) || !EqualExpr(x.Fun, y.Fun) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *ast.Index:
		y, ok := b.(*ast.Index)
		return ok && EqualExpr(x.X, y.X) && EqualExpr(x.Idx, y.Idx)
	case *ast.Member:
		y, ok := b.(*ast.Member)
		return ok && x.Name == y.Name && x.Arrow == y.Arrow && EqualExpr(x.X, y.X)
	case *ast.Cast:
		y, ok := b.(*ast.Cast)
		return ok && types.Equal(x.To, y.To) && EqualExpr(x.X, y.X)
	case *ast.SizeofExpr:
		y, ok := b.(*ast.SizeofExpr)
		return ok && EqualExpr(x.X, y.X)
	case *ast.SizeofType:
		y, ok := b.(*ast.SizeofType)
		return ok && types.Equal(x.Of, y.Of)
	case *ast.Wildcard:
		y, ok := b.(*ast.Wildcard)
		return ok && x.Name == y.Name
	case *ast.InitList:
		y, ok := b.(*ast.InitList)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !EqualExpr(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Stmt matches a statement pattern against a subject statement under
// env, returning the extended environment. An ExprStmt pattern also
// matches Return-with-value subjects only when the pattern itself is a
// Return; statement kinds otherwise must agree.
func (m *Matcher) Stmt(pat, subj ast.Stmt, env Env) (Env, bool) {
	switch p := pat.(type) {
	case *ast.ExprStmt:
		s, ok := subj.(*ast.ExprStmt)
		if !ok {
			return nil, false
		}
		return m.matchExpr(p.X, s.X, env)
	case *ast.Return:
		s, ok := subj.(*ast.Return)
		if !ok {
			return nil, false
		}
		if p.X == nil {
			if s.X == nil {
				return env, true
			}
			return nil, false
		}
		if s.X == nil {
			return nil, false
		}
		return m.matchExpr(p.X, s.X, env)
	case *ast.Break:
		if _, ok := subj.(*ast.Break); ok {
			return env, true
		}
	case *ast.Continue:
		if _, ok := subj.(*ast.Continue); ok {
			return env, true
		}
	case *ast.Goto:
		if s, ok := subj.(*ast.Goto); ok && s.Label == p.Label {
			return env, true
		}
	case *ast.Empty:
		if _, ok := subj.(*ast.Empty); ok {
			return env, true
		}
	}
	return nil, false
}

// Result is one successful sub-expression match.
type Result struct {
	Expr ast.Expr
	Env  Env
}

// First returns the first sub-expression of root, in ast.Inspect's
// pre-order, that matches pat under env, with the extended
// environment. root may be any AST node (statement, expression or
// declaration); the search recurses through all expressions it
// contains and stops at the first match.
func (m *Matcher) First(pat ast.Expr, root ast.Node, env Env) (Result, bool) {
	m.walk(pat, root, env, false)
	if m.hit == nil {
		return Result{}, false
	}
	res := Result{Expr: m.hit, Env: m.env()}
	m.hit = nil
	return res, true
}

// Count returns how many sub-expressions of root match pat: every
// match First would find if it kept walking. It builds no Env.
func (m *Matcher) Count(pat ast.Expr, root ast.Node) int {
	m.walk(pat, root, nil, true)
	return m.hits
}

func (m *Matcher) walk(pat ast.Expr, root ast.Node, env Env, counting bool) {
	if m.visit == nil {
		m.visit = m.visitNode
	}
	m.begin(env)
	m.pat, m.hit, m.counting, m.hits = pat, nil, counting, 0
	ast.Inspect(root, m.visit)
	m.pat = nil
}

// visitNode attempts one candidate of a First or Count walk. Once
// First has its hit, the rest of the tree is skipped.
func (m *Matcher) visitNode(n ast.Node) bool {
	if m.hit != nil {
		return false
	}
	e, ok := n.(ast.Expr)
	if !ok {
		return true
	}
	m.trail = m.trail[:0]
	if !m.exprInto(m.pat, e) {
		return true
	}
	if m.counting {
		m.hits++
		return true
	}
	m.hit = e
	return false
}
