package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/sem"
)

func pat(t *testing.T, src string, wild map[string]string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExprPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return e
}

func subj(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExprPattern(src, parser.PatternContext{})
	if err != nil {
		t.Fatalf("subject %q: %v", src, err)
	}
	return e
}

// exprMatch matches a whole expression with a fresh Matcher.
func exprMatch(pat, subj ast.Expr, env Env) (Env, bool) {
	var m Matcher
	return m.matchExpr(pat, subj, env)
}

func TestExactMatch(t *testing.T) {
	p := pat(t, "WAIT_FOR_DB_FULL(addr)", map[string]string{"addr": "scalar"})
	s := subj(t, "WAIT_FOR_DB_FULL(hdr + 4)")
	env, ok := exprMatch(p, s, nil)
	if !ok {
		t.Fatal("no match")
	}
	if ast.ExprString(env["addr"]) != "hdr + 4" {
		t.Errorf("bound %q", ast.ExprString(env["addr"]))
	}
}

func TestArityMismatch(t *testing.T) {
	p := pat(t, "F(a, b)", map[string]string{"a": "", "b": ""})
	if _, ok := exprMatch(p, subj(t, "F(1)"), nil); ok {
		t.Error("matched wrong arity")
	}
	if _, ok := exprMatch(p, subj(t, "F(1, 2, 3)"), nil); ok {
		t.Error("matched wrong arity")
	}
}

func TestCalleeMustAgree(t *testing.T) {
	p := pat(t, "PI_SEND(x)", map[string]string{"x": ""})
	if _, ok := exprMatch(p, subj(t, "NI_SEND(1)"), nil); ok {
		t.Error("different callee matched")
	}
}

func TestRepeatedWildcardRequiresEquality(t *testing.T) {
	p := pat(t, "cmp(x, x)", map[string]string{"x": ""})
	if _, ok := exprMatch(p, subj(t, "cmp(a + 1, a + 1)"), nil); !ok {
		t.Error("equal args should match")
	}
	if _, ok := exprMatch(p, subj(t, "cmp(a, b)"), nil); ok {
		t.Error("unequal args matched")
	}
}

func TestParensTransparent(t *testing.T) {
	p := pat(t, "f(x)", map[string]string{"x": ""})
	if _, ok := exprMatch(p, subj(t, "(f((y + 2)))"), nil); !ok {
		t.Error("parens blocked match")
	}
}

func TestLiteralValueMatching(t *testing.T) {
	p := pat(t, "g(16)", nil)
	if _, ok := exprMatch(p, subj(t, "g(0x10)"), nil); !ok {
		t.Error("hex 0x10 should equal 16")
	}
	if _, ok := exprMatch(p, subj(t, "g(17)"), nil); ok {
		t.Error("17 matched 16")
	}
}

func TestMemberAndAssignPatterns(t *testing.T) {
	p := pat(t, "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA", nil)
	s := subj(t, "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA")
	if _, ok := exprMatch(p, s, nil); !ok {
		t.Error("no match")
	}
	s2 := subj(t, "HANDLER_GLOBALS(header.nh.len) = LEN_WORD")
	if _, ok := exprMatch(p, s2, nil); ok {
		t.Error("different RHS matched")
	}
	s3 := subj(t, "HANDLER_GLOBALS(header.nh.cnt) = LEN_NODATA")
	if _, ok := exprMatch(p, s3, nil); ok {
		t.Error("different member matched")
	}
}

func TestArrowVsDot(t *testing.T) {
	p := pat(t, "h.len", nil)
	if _, ok := exprMatch(p, subj(t, "h->len"), nil); ok {
		t.Error("-> matched .")
	}
}

func TestConstraintConst(t *testing.T) {
	p := pat(t, "set_len(k)", map[string]string{"k": "const"})
	if _, ok := exprMatch(p, subj(t, "set_len(4)"), nil); !ok {
		t.Error("literal should satisfy const")
	}
	if _, ok := exprMatch(p, subj(t, "set_len(n)"), nil); ok {
		t.Error("identifier satisfied const")
	}
}

func TestConstraintID(t *testing.T) {
	p := pat(t, "free_buf(v)", map[string]string{"v": "id"})
	if _, ok := exprMatch(p, subj(t, "free_buf(buf)"), nil); !ok {
		t.Error("ident should satisfy id")
	}
	if _, ok := exprMatch(p, subj(t, "free_buf(buf + 1)"), nil); ok {
		t.Error("expression satisfied id")
	}
}

func TestConstraintFloatUsesTypes(t *testing.T) {
	// Type-check a real function so expressions carry types.
	f, errs := parser.ParseText("t.c", `
void g(void) {
	double d;
	int i;
	use(d);
	use(i);
}`)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	c := sem.NewChecker(sem.NewEnv())
	c.Check(f)
	body := f.Funcs()[0].Body
	useD := body.Stmts[2].(*ast.ExprStmt).X
	useI := body.Stmts[3].(*ast.ExprStmt).X
	p := pat(t, "use(v)", map[string]string{"v": "float"})
	if _, ok := exprMatch(p, useD, nil); !ok {
		t.Error("use(d) should match float wildcard")
	}
	if _, ok := exprMatch(p, useI, nil); ok {
		t.Error("use(i) matched float wildcard")
	}
}

func TestEnvNotMutatedOnFailure(t *testing.T) {
	p := pat(t, "f(x, x)", map[string]string{"x": ""})
	base := Env{"pre": subj(t, "kept")}
	_, ok := exprMatch(p, subj(t, "f(1, 2)"), base)
	if ok {
		t.Fatal("should not match")
	}
	if len(base) != 1 {
		t.Errorf("env mutated: %v", base)
	}
	env2, ok := exprMatch(p, subj(t, "f(3, 3)"), base)
	if !ok {
		t.Fatal("should match")
	}
	if _, exists := env2["pre"]; !exists {
		t.Error("prior bindings lost")
	}
	if _, exists := base["x"]; exists {
		t.Error("success mutated the input env")
	}
}

func TestFindSubexpressions(t *testing.T) {
	f, errs := parser.ParseText("t.c", `
void g(void) {
	int v;
	v = MISCBUS_READ_DB(a, b) + MISCBUS_READ_DB(c, d);
}`)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	p := pat(t, "MISCBUS_READ_DB(x, y)", map[string]string{"x": "", "y": ""})
	body := f.Funcs()[0].Body
	var m Matcher
	if n := m.Count(p, body); n != 2 {
		t.Fatalf("Count found %d", n)
	}
	res, ok := m.First(p, body, nil)
	if !ok {
		t.Fatal("First found nothing")
	}
	if got := ast.ExprString(res.Expr); got != "MISCBUS_READ_DB(a, b)" {
		t.Errorf("First matched %q", got)
	}
	if ast.ExprString(res.Env["x"]) != "a" || ast.ExprString(res.Env["y"]) != "b" {
		t.Errorf("bindings %v", res.Env)
	}
}

func TestStmtPatterns(t *testing.T) {
	retPat, err := parser.ParseStmtPattern("return;", parser.PatternContext{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := parser.ParseText("t.c", `void g(int c) { if (c) return; c = 1; }`)
	var m Matcher
	var matched int
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			if _, ok := m.Stmt(retPat, s, nil); ok {
				matched++
			}
		}
		return true
	})
	if matched != 1 {
		t.Errorf("return; matched %d times", matched)
	}
}

func TestStmtReturnValuePattern(t *testing.T) {
	p, err := parser.ParseStmtPattern("return v;", parser.PatternContext{
		Wildcards: map[string]string{"v": ""}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := parser.ParseStmtPattern("return x + 1;", parser.PatternContext{})
	if err != nil {
		t.Fatal(err)
	}
	var m Matcher
	env, ok := m.Stmt(p, s, nil)
	if !ok || ast.ExprString(env["v"]) != "x + 1" {
		t.Errorf("ok=%v env=%v", ok, env)
	}
	// return; must not match return v;
	bare, _ := parser.ParseStmtPattern("return;", parser.PatternContext{})
	if _, ok := m.Stmt(p, bare, nil); ok {
		t.Error("return v matched bare return")
	}
}

// randExprSrc builds random expression source from a small grammar.
func randExprSrc(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		atoms := []string{"a", "b", "buf", "42", "0x1f", "'c'", `"s"`, "hdr.len", "p->next"}
		return atoms[rng.Intn(len(atoms))]
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"+", "-", "*", "&", "|", "==", "<<"}
		return "(" + randExprSrc(rng, depth-1) + " " + ops[rng.Intn(len(ops))] + " " + randExprSrc(rng, depth-1) + ")"
	case 1:
		return "f(" + randExprSrc(rng, depth-1) + ", " + randExprSrc(rng, depth-1) + ")"
	case 2:
		return "!" + randExprSrc(rng, depth-1)
	case 3:
		return randExprSrc(rng, depth-1) + "[" + randExprSrc(rng, depth-1) + "]"
	default:
		return "(" + randExprSrc(rng, depth-1) + ")"
	}
}

// Property: every expression matches itself as a pattern (identity
// patterns have no wildcards), and EqualExpr is reflexive.
func TestSelfMatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randExprSrc(rng, 4)
		e1, err := parser.ParseExprPattern(src, parser.PatternContext{})
		if err != nil {
			return false
		}
		e2, err := parser.ParseExprPattern(src, parser.PatternContext{})
		if err != nil {
			return false
		}
		if !EqualExpr(e1, e2) {
			t.Logf("not self-equal: %s", src)
			return false
		}
		if _, ok := exprMatch(e1, e2, nil); !ok {
			t.Logf("no self-match: %s", src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a single wildcard pattern matches anything and binds the
// whole subject.
func TestWildcardMatchesAnythingProperty(t *testing.T) {
	w := map[string]string{"hole": ""}
	p := pat(t, "hole", w)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randExprSrc(rng, 3)
		subj, err := parser.ParseExprPattern(src, parser.PatternContext{})
		if err != nil {
			return false
		}
		env, ok := exprMatch(p, subj, nil)
		if !ok {
			return false
		}
		return EqualExpr(env["hole"], subj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: wrapping the subject in parentheses never changes whether
// a pattern matches.
func TestParenInvarianceProperty(t *testing.T) {
	w := map[string]string{"x": "", "y": ""}
	p := pat(t, "f(x, y)", w)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inner := randExprSrc(rng, 2)
		bare, err1 := parser.ParseExprPattern("f("+inner+", b)", parser.PatternContext{})
		wrapped, err2 := parser.ParseExprPattern("((f((("+inner+")), (b))))", parser.PatternContext{})
		if err1 != nil || err2 != nil {
			return false
		}
		_, ok1 := exprMatch(p, bare, nil)
		_, ok2 := exprMatch(p, wrapped, nil)
		return ok1 && ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnderscoreWildcardDoesNotBind(t *testing.T) {
	p := pat(t, "f(_, _)", map[string]string{"_": ""})
	env, ok := exprMatch(p, subj(t, "f(1, 2)"), nil)
	if !ok {
		t.Fatal("underscore should match without equality requirement")
	}
	if _, bound := env["_"]; bound {
		t.Error("underscore bound")
	}
}

// A failed First over a subject with many candidates — including
// candidates that bind a wildcard before failing on its repetition —
// allocates nothing once the Matcher's trail has grown.
func TestFirstFailureAllocatesNothing(t *testing.T) {
	p := pat(t, "f(x, x)", map[string]string{"x": ""})
	s := subj(t, "g(f(a, b), h(f(c, d), k[f(e, a + b)]), (f(b, c)))")
	var m Matcher
	if _, ok := m.First(p, s, nil); ok {
		t.Fatal("pattern should not match")
	}
	base := Env{"x": subj(t, "z")}
	if allocs := testing.AllocsPerRun(100, func() {
		m.First(p, s, nil)
		m.First(p, s, base)
		m.Count(p, s)
	}); allocs != 0 {
		t.Errorf("failed First/Count allocated %v objects per run", allocs)
	}
}
