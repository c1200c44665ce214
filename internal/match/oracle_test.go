package match_test

import (
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cfg"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/flashgen"
	"flashmc/internal/match"
)

// checkerPatterns collects every expression pattern the checker suite
// matches against CFG events: expression rule patterns, the
// expressions of expression-statement rule patterns (which also match
// as sub-expressions) and branch-condition patterns.
func checkerPatterns(t *testing.T, p *flashgen.Protocol) []ast.Expr {
	t.Helper()
	var pats []ast.Expr
	sms := 0
	for _, c := range checkers.All() {
		prov, ok := c.(checkers.SMProvider)
		if !ok {
			continue
		}
		sm, _ := prov.BuildSM(p.Spec)
		sms++
		for _, r := range sm.Rules {
			for _, alt := range r.Patterns {
				if alt.Expr != nil {
					pats = append(pats, alt.Expr)
				}
				if es, ok := alt.Stmt.(*ast.ExprStmt); ok {
					pats = append(pats, es.X)
				}
			}
		}
		for _, cr := range sm.Cond {
			pats = append(pats, cr.Pattern)
		}
	}
	if sms == 0 || len(pats) == 0 {
		t.Fatalf("no SM patterns found (%d SMs)", sms)
	}
	return pats
}

// events returns every CFG event of prog: statement nodes' statements
// and branch nodes' conditions, the subjects the engine matches.
func events(prog *core.Program) []ast.Node {
	var out []ast.Node
	for _, g := range prog.Graphs {
		for _, n := range g.Nodes {
			switch n.Kind {
			case cfg.KindStmt:
				out = append(out, n.Stmt)
			case cfg.KindBranch:
				out = append(out, n.Cond)
			}
		}
	}
	return out
}

// sameEnv reports whether two environments bind the same names to the
// same expression nodes (nil and empty are the same environment).
func sameEnv(a, b match.Env) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// checkAgainstFind asserts Matcher.First and Matcher.Count agree with
// the clone-per-candidate reference Find on one pattern and root.
func checkAgainstFind(t *testing.T, m *match.Matcher, pat ast.Expr, root ast.Node, env match.Env) bool {
	t.Helper()
	want := match.Find(pat, root, env)
	got, ok := m.First(pat, root, env)
	switch {
	case ok != (len(want) > 0):
		t.Errorf("First(%s) on %T at %s: ok=%v, Find has %d results",
			ast.ExprString(pat), root, root.Pos(), ok, len(want))
		return false
	case ok && got.Expr != want[0].Expr:
		t.Errorf("First(%s) at %s: node %s, Find[0] is %s", ast.ExprString(pat),
			root.Pos(), ast.ExprString(got.Expr), ast.ExprString(want[0].Expr))
		return false
	case ok && !sameEnv(got.Env, want[0].Env):
		t.Errorf("First(%s) at %s: env %v, Find[0] has %v",
			ast.ExprString(pat), root.Pos(), got.Env, want[0].Env)
		return false
	}
	if env == nil {
		if n := m.Count(pat, root); n != len(want) {
			t.Errorf("Count(%s) at %s = %d, len(Find) = %d",
				ast.ExprString(pat), root.Pos(), n, len(want))
			return false
		}
	}
	return true
}

// TestFirstAndCountMatchFindOnCorpus runs every checker pattern over
// every CFG event of one generated protocol through one Matcher (so
// the trail is reused across attempts, as in the engine) and compares
// against the reference Find: First is Find's first result, bindings
// included, and Count is its length. A second sweep repeats each
// pattern under a base environment taken from one of its own matches,
// so repeated wildcards must also agree with inherited bindings.
func TestFirstAndCountMatchFindOnCorpus(t *testing.T) {
	gen := flashgen.Generate(flashgen.Options{Seed: 1})
	p := gen.Protocols[0]
	prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	pats := checkerPatterns(t, p)
	evs := events(prog)
	if len(evs) == 0 {
		t.Fatal("protocol has no CFG events")
	}
	var m match.Matcher
	hits := 0
	for _, pat := range pats {
		var base match.Env
		for _, ev := range evs {
			if !checkAgainstFind(t, &m, pat, ev, nil) {
				return
			}
			if rs := match.Find(pat, ev, nil); len(rs) > 0 {
				hits++
				if base == nil && len(rs[0].Env) > 0 {
					base = rs[0].Env
				}
			}
		}
		if base == nil {
			continue
		}
		for _, ev := range evs {
			if !checkAgainstFind(t, &m, pat, ev, base) {
				return
			}
		}
	}
	if hits == 0 {
		t.Fatal("no pattern matched any event; the comparison is vacuous")
	}
	t.Logf("%d patterns x %d events, %d matching pairs", len(pats), len(evs), hits)
}

// TestFirstRepeatedWildcardDoesNotLeak pins the case the binding trail
// must get right: a candidate that binds x and then fails on the
// second x must leave no binding behind for later candidates.
func TestFirstRepeatedWildcardDoesNotLeak(t *testing.T) {
	pat, err := parser.ParseExprPattern("f(x, x)", parser.PatternContext{
		Wildcards: map[string]string{"x": ""}})
	if err != nil {
		t.Fatal(err)
	}
	var m match.Matcher
	for _, tc := range []struct {
		src   string
		first string // "" when nothing matches
		count int
	}{
		{"f(a, b)", "", 0},
		{"g(f(a, b), f(c, c))", "c", 1},
		{"f(f(a, b), f(a, b))", "f(a, b)", 1},
		{"g(f(a, b), (f(c, c)), f(d, d))", "c", 3},
	} {
		root, err := parser.ParseExprPattern(tc.src, parser.PatternContext{})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFind(t, &m, pat, root, nil)
		got, ok := m.First(pat, root, nil)
		bound := ""
		if ok {
			bound = ast.ExprString(got.Env["x"])
		}
		if bound != tc.first {
			t.Errorf("%s: x bound to %q (matched=%v), want %q", tc.src, bound, ok, tc.first)
		}
		if n := m.Count(pat, root); n != tc.count {
			t.Errorf("%s: Count = %d, want %d", tc.src, n, tc.count)
		}
	}
}
