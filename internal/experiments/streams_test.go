package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"unicode"
)

// streamCanonicalPriorityValue mirrors core.streamCanonicalPriority, the
// one stream constant living outside this registry (unexported there). The
// registry must stay far below it.
const streamCanonicalPriorityValue uint64 = 0x63616e6f

// declaredStreams parses streams.go and returns the stream constant names
// in declaration order — with iota+1 assignment, the i-th name has value
// uint64(i+1), which lets the test pin name↔value pairing without a type
// checker.
func declaredStreams(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "streams.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, name := range vs.Names {
				if strings.HasPrefix(name.Name, "stream") {
					names = append(names, name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no stream constants found in streams.go")
	}
	return names
}

// kebab converts a constant name like streamFig2Deploy to its registry key
// fig2-deploy.
func kebab(constName string) string {
	s := strings.TrimPrefix(constName, "stream")
	var b strings.Builder
	for i, r := range s {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('-')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TestStreamRegistry holds streams.go to its invariants: every declared
// stream constant is named in seedStreams under its kebab-case key with the
// right value, values are unique and contiguous from 1, and the whole range
// stays clear of the out-of-package canonical-priority stream.
func TestStreamRegistry(t *testing.T) {
	names := declaredStreams(t)
	if len(names) != len(seedStreams) {
		t.Fatalf("streams.go declares %d stream constants but seedStreams names %d",
			len(names), len(seedStreams))
	}
	seen := make(map[uint64]string, len(seedStreams))
	for key, v := range seedStreams {
		if prev, dup := seen[v]; dup {
			t.Errorf("stream value %d is shared by %q and %q", v, prev, key)
		}
		seen[v] = key
		if v >= streamCanonicalPriorityValue {
			t.Errorf("stream %q (= %d) collides with the reserved range at core.streamCanonicalPriority (= %d)",
				key, v, streamCanonicalPriorityValue)
		}
	}
	for i, name := range names {
		key := kebab(name)
		got, ok := seedStreams[key]
		if !ok {
			t.Errorf("constant %s has no seedStreams entry under key %q", name, key)
			continue
		}
		if want := uint64(i + 1); got != want {
			t.Errorf("seedStreams[%q] = %d, but %s is the %d-th declared constant (value %d): the map pairs the wrong constant",
				key, got, name, i+1, want)
		}
	}
}
