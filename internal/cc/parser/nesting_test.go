package parser

import (
	"strings"
	"testing"
)

// nested returns open repeated n times, then mid, then close repeated n
// times.
func nested(open, mid, close string, n int) string {
	return strings.Repeat(open, n) + mid + strings.Repeat(close, n)
}

// TestNestingBoundEdge pins the bound at its edge. The return
// statement takes one level and each operand one more: every
// parenthesized one and the literal innermost. So maxNesting-2
// parentheses are the deepest accepted, and with one more the literal
// is refused with a single error.
func TestNestingBoundEdge(t *testing.T) {
	const prefix = "void f(void) { return "
	src := func(n int) string { return prefix + nested("(", "1", ")", n) + "; }" }
	if _, errs := ParseText("ok.c", src(maxNesting-2)); len(errs) != 0 {
		t.Fatalf("nesting at the bound refused: %v", errs[0])
	}
	_, errs := ParseText("deep.c", src(maxNesting-1))
	if len(errs) != 1 {
		t.Fatalf("past the bound: %d errors, want 1: %v", len(errs), errs)
	}
	e, ok := errs[0].(*Error)
	if !ok || !strings.Contains(e.Msg, "nested deeper than") {
		t.Fatalf("past the bound: %v", errs[0])
	}
	if want := len(prefix) + maxNesting; e.Pos.Line != 1 || e.Pos.Col != want {
		t.Fatalf("error at %d:%d, want the literal at 1:%d", e.Pos.Line, e.Pos.Col, want)
	}
}

// TestNestingBoundEveryProduction: each recursive production refuses
// nesting past the bound with one error instead of descending. (A
// function body is not itself a statement, hence one level of slack.)
func TestNestingBoundEveryProduction(t *testing.T) {
	n := maxNesting + 2
	for name, src := range map[string]string{
		"parens":      "int x = " + nested("(", "1", ")", n) + ";",
		"unary":       "int x = " + strings.Repeat("!", n) + "1;",
		"casts":       "int x = " + strings.Repeat("(int)", n) + "1;",
		"calls":       "int x = " + nested("f(", "1", ")", n) + ";",
		"index":       "int x = " + nested("a[", "1", "]", n) + ";",
		"assignments": "void f(void) { " + strings.Repeat("x = ", n) + "1; }",
		"conditional": "int x = " + strings.Repeat("1 ? 1 : ", n) + "1;",
		"blocks":      "void f(void) " + nested("{", "", "}", n),
		"if-chain":    "void f(void) { " + strings.Repeat("if (1) ", n) + "; }",
		"initializer": "int x[1] = " + nested("{", "1", "}", n) + ";",
		"declarator":  "void f" + nested("(int g", "", ")", n) + ";",
		"struct":      nested("struct { ", "int x;", " } a; ", n),
	} {
		_, errs := ParseText(name+".c", src)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "nested deeper than") {
			t.Errorf("%s: errors %v, want one nesting error", name, errs)
		}
	}
}
