package match

import (
	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/types"
)

// This file keeps the clone-per-candidate matcher that Matcher
// replaced, as a reference implementation for differential tests. It
// is deliberately independent of the binding trail: every candidate
// gets its own copy of the environment, so a failed attempt cannot
// leak bindings into the next one by construction.

// Find collects every sub-expression of root that matches pat, each
// with its own extended copy of env, in ast.Inspect's pre-order.
func Find(pat ast.Expr, root ast.Node, env Env) []Result {
	var out []Result
	ast.Inspect(root, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		got := make(Env, len(env)+2)
		for k, v := range env {
			got[k] = v
		}
		if refExprInto(pat, e, got) {
			out = append(out, Result{Expr: e, Env: got})
		}
		return true
	})
	return out
}

func refExprInto(pat, subj ast.Expr, env Env) bool {
	pat = stripParens(pat)
	subj = stripParens(subj)
	if w, ok := pat.(*ast.Wildcard); ok {
		if !constraintOK(w.Constraint, subj) {
			return false
		}
		if w.Name == "" || w.Name == "_" {
			return true
		}
		if prev, ok := env[w.Name]; ok {
			return EqualExpr(prev, subj)
		}
		env[w.Name] = subj
		return true
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
		return ok && s.Op == p.Op && s.Postfix == p.Postfix && refExprInto(p.X, s.X, env)
	case *ast.Binary:
		s, ok := subj.(*ast.Binary)
		return ok && s.Op == p.Op && refExprInto(p.X, s.X, env) && refExprInto(p.Y, s.Y, env)
	case *ast.Assign:
		s, ok := subj.(*ast.Assign)
		return ok && s.Op == p.Op && refExprInto(p.LHS, s.LHS, env) && refExprInto(p.RHS, s.RHS, env)
	case *ast.Cond:
		s, ok := subj.(*ast.Cond)
		return ok && refExprInto(p.C, s.C, env) && refExprInto(p.Then, s.Then, env) && refExprInto(p.Else, s.Else, env)
	case *ast.Call:
		s, ok := subj.(*ast.Call)
		if !ok || len(s.Args) != len(p.Args) || !refExprInto(p.Fun, s.Fun, env) {
			return false
		}
		for i := range p.Args {
			if !refExprInto(p.Args[i], s.Args[i], env) {
				return false
			}
		}
		return true
	case *ast.Index:
		s, ok := subj.(*ast.Index)
		return ok && refExprInto(p.X, s.X, env) && refExprInto(p.Idx, s.Idx, env)
	case *ast.Member:
		s, ok := subj.(*ast.Member)
		return ok && s.Name == p.Name && s.Arrow == p.Arrow && refExprInto(p.X, s.X, env)
	case *ast.Cast:
		s, ok := subj.(*ast.Cast)
		return ok && types.Equal(s.To, p.To) && refExprInto(p.X, s.X, env)
	case *ast.SizeofExpr:
		s, ok := subj.(*ast.SizeofExpr)
		return ok && refExprInto(p.X, s.X, env)
	case *ast.SizeofType:
		s, ok := subj.(*ast.SizeofType)
		return ok && types.Equal(s.Of, p.Of)
	case *ast.InitList:
		s, ok := subj.(*ast.InitList)
		if !ok || len(s.Elems) != len(p.Elems) {
			return false
		}
		for i := range p.Elems {
			if !refExprInto(p.Elems[i], s.Elems[i], env) {
				return false
			}
		}
		return true
	}
	return false
}
