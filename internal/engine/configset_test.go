package engine

import (
	"fmt"
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/match"
)

// configSet compares against its first key while it holds one config
// and through a map index from the second on; either way add reports
// whether the key was new and the set keeps first-insertion order
// (which decides the witness trace a report carries). A reset set
// starts over on the first-key path.
func TestConfigSetDedupAndOrder(t *testing.T) {
	const n = 12
	mk := func(i int) config {
		// Odd configs carry a binding so keys are not just states.
		c := config{state: fmt.Sprintf("s%d", i/2)}
		if i%2 == 1 {
			c.env = match.Env{"b": &ast.Ident{Name: fmt.Sprintf("v%d", i)}}
		}
		return c
	}
	var s configSet
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if !s.add(mk(i)) {
				t.Fatalf("round %d: add(%d) reported a duplicate", round, i)
			}
			// Re-add the first key and the one just added, with one
			// entry (no index) and with several (indexed).
			if s.add(mk(0)) {
				t.Fatalf("round %d: duplicate of config 0 added at size %d", round, len(s.list))
			}
			if s.add(mk(i)) {
				t.Fatalf("round %d: duplicate of config %d added", round, i)
			}
			if indexed := s.idx != nil; indexed != (i > 0) {
				t.Fatalf("round %d: index present=%v with %d entries", round, indexed, len(s.list))
			}
		}
		if len(s.list) != n {
			t.Fatalf("round %d: %d entries, want %d", round, len(s.list), n)
		}
		for i, c := range s.list {
			if got, want := c.key(), mk(i).key(); got != want {
				t.Errorf("round %d: entry %d is %q, want %q", round, i, got, want)
			}
		}
		s.reset()
		if len(s.list) != 0 || s.idx != nil {
			t.Fatalf("reset left %d entries, index %v", len(s.list), s.idx)
		}
	}
}
