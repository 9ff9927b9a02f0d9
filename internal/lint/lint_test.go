package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePass builds a Pass from in-memory sources (filename → source).
func parsePass(t *testing.T, path string, sources map[string]string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range sources {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	return &Pass{Fset: fset, Path: path, Dir: ".", Files: files}
}

func findingStrings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func TestTimeNowFlagsDeterministicPackages(t *testing.T) {
	src := `package dep
import "time"
func now() time.Time { return time.Now() }
func ok() time.Duration { return time.Hour }
`
	p := parsePass(t, "orion/internal/dep", map[string]string{"a.go": src})
	fs := TimeNow.Run(p)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", findingStrings(fs))
	}
	if !strings.Contains(fs[0].Message, "time.Now") {
		t.Errorf("finding should name time.Now: %s", fs[0].Message)
	}

	// The same code in a non-deterministic package is fine.
	p2 := parsePass(t, "orion/internal/runtime", map[string]string{"a.go": src})
	if fs := TimeNow.Run(p2); len(fs) != 0 {
		t.Errorf("runtime package should be exempt, got %v", findingStrings(fs))
	}

	// Test files are exempt even in deterministic packages.
	p3 := parsePass(t, "orion/internal/dep", map[string]string{"a_test.go": src})
	if fs := TimeNow.Run(p3); len(fs) != 0 {
		t.Errorf("test files should be exempt, got %v", findingStrings(fs))
	}
}

func TestTimeNowRenamedImport(t *testing.T) {
	src := `package lang
import clock "time"
func now() clock.Time { return clock.Now() }
`
	p := parsePass(t, "orion/internal/lang", map[string]string{"a.go": src})
	if fs := TimeNow.Run(p); len(fs) != 1 {
		t.Fatalf("renamed time import should still be flagged, got %v", findingStrings(fs))
	}
}

const spanSrcLeaky = `package runtime
func (m *M) step() error {
	start := m.trace.Begin()
	if m.bad() {
		return m.err // span leaked
	}
	m.trace.EndN("step", "master", start, "n", 1)
	return nil
}
`

const spanSrcFixed = `package runtime
func (m *M) step() error {
	start := m.trace.Begin()
	if m.bad() {
		m.trace.EndN("step", "master", start, "n", 0)
		return m.err
	}
	m.trace.EndN("step", "master", start, "n", 1)
	return nil
}
`

const spanSrcDefer = `package runtime
func (m *M) step() error {
	start := m.trace.Begin()
	defer func() { m.trace.End("step", "master", start) }()
	if m.bad() {
		return m.err
	}
	return nil
}
`

const spanSrcNeverEnded = `package runtime
func (m *M) step() {
	start := m.trace.Begin()
	_ = start.String()
}
`

func TestSpanEnd(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"leaky early return", spanSrcLeaky, 1},
		{"ended on all paths", spanSrcFixed, 0},
		{"covered by defer", spanSrcDefer, 0},
	}
	for _, tc := range cases {
		p := parsePass(t, "orion/internal/runtime", map[string]string{"a.go": tc.src})
		fs := SpanEnd.Run(p)
		if len(fs) != tc.want {
			t.Errorf("%s: want %d findings, got %v", tc.name, tc.want, findingStrings(fs))
		}
	}
	// A span whose variable is used (so not "never ended") but that
	// has no returns at all is accepted — the lexical check is about
	// return paths.
	p := parsePass(t, "orion/internal/runtime", map[string]string{"a.go": spanSrcNeverEnded})
	if fs := SpanEnd.Run(p); len(fs) != 0 {
		t.Errorf("used span without returns should pass, got %v", findingStrings(fs))
	}
}

func TestSpanEndNeverUsed(t *testing.T) {
	src := `package runtime
func (m *M) step() {
	start := m.trace.Begin()
	m.work()
}
`
	p := parsePass(t, "orion/internal/runtime", map[string]string{"a.go": src})
	fs := SpanEnd.Run(p)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "never ended") {
		t.Fatalf("want one never-ended finding, got %v", findingStrings(fs))
	}
}

func TestSpanEndNestedFuncScopes(t *testing.T) {
	// The Begin in the outer function must not be "covered" by a use
	// inside an unrelated nested function literal that never runs, and
	// a leak inside a literal is found independently.
	src := `package runtime
func (m *M) outer() error {
	go func() {
		s := m.trace.Begin()
		if m.bad() {
			return // leak inside the literal
		}
		m.trace.End("x", "y", s)
	}()
	return nil
}
`
	p := parsePass(t, "orion/internal/runtime", map[string]string{"a.go": src})
	fs := SpanEnd.Run(p)
	if len(fs) != 1 {
		t.Fatalf("want the literal's leak flagged once, got %v", findingStrings(fs))
	}
}

func TestMsgRetain(t *testing.T) {
	src := `package runtime
type pending struct {
	offs []int64
	vals []float64
}
func (e *E) handle(msg *Msg) *pending {
	p := &pending{}
	p.offs = msg.Offsets                      // BAD: field store
	p.vals = append([]float64(nil), msg.Values...) // ok: cloned
	e.install(msg.Array, msg.Offsets, nil)    // ok: call argument
	_ = msg.Values[0]                         // ok: element read
	_ = len(msg.Offsets)                      // ok: len
	resp := Msg{Offsets: msg.Offsets}         // ok: response Msg literal
	_ = resp
	q := pending{offs: msg.Offsets}           // BAD: non-Msg literal
	_ = q
	return p
}
func leak(msg *Msg) []int64 {
	return msg.Offsets // BAD: returned
}
`
	p := parsePass(t, "orion/internal/runtime", map[string]string{"a.go": src})
	fs := MsgRetain.Run(p)
	if len(fs) != 3 {
		t.Fatalf("want 3 findings, got %v", findingStrings(fs))
	}

	// Other packages are out of scope.
	p2 := parsePass(t, "orion/internal/driver", map[string]string{"a.go": src})
	if fs := MsgRetain.Run(p2); len(fs) != 0 {
		t.Errorf("non-runtime package should be exempt, got %v", findingStrings(fs))
	}
}

// TestMsgRetainRuntimeSubpackage: packages under runtime/ (bufpool,
// which pools rotation storage) are in scope like runtime itself.
func TestMsgRetainRuntimeSubpackage(t *testing.T) {
	src := `package bufpool
type part struct {
	data []float64
}
func adopt(msg *Msg) *part {
	p := &part{}
	p.data = msg.Values            // BAD: payload retained
	fwd := Msg{Values: msg.Values} // ok: forwarded Msg literal
	_ = fwd
	return p
}
func leak(msg *Msg) []int64 {
	return msg.Offsets // BAD: returned
}
`
	p := parsePass(t, "orion/internal/runtime/bufpool", map[string]string{"a.go": src})
	fs := MsgRetain.Run(p)
	if len(fs) != 2 {
		t.Fatalf("runtime/bufpool should be in scope: want 2 findings, got %v", findingStrings(fs))
	}
	for _, f := range fs {
		if !strings.Contains(f.Message, "backing storage") {
			t.Errorf("finding %q does not explain the retention hazard", f.Message)
		}
	}
}

func TestIgnoreDirective(t *testing.T) {
	src := `package dep
import "time"
func now() time.Time {
	//lint:ignore timenow this clock is informational only
	return time.Now()
}
func other() time.Time { return time.Now() }
`
	p := parsePass(t, "orion/internal/dep", map[string]string{"a.go": src})
	fs := Run([]*Pass{p}, []*Analyzer{TimeNow})
	if len(fs) != 1 {
		t.Fatalf("directive should suppress exactly one finding, got %v", findingStrings(fs))
	}
	pos := fs[0].Pos
	if pos.Line != 7 {
		t.Errorf("surviving finding should be the undirected one (line 7), got line %d", pos.Line)
	}
}

func TestLoadRepo(t *testing.T) {
	// Loading the real module exercises the loader end to end; the
	// repository itself must lint clean (this is the same gate as
	// `make lint`).
	passes, err := Load("../..", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(passes))
	}
	if fs := Run(passes, Analyzers()); len(fs) != 0 {
		t.Errorf("repository must lint clean:\n%s", strings.Join(findingStrings(fs), "\n"))
	}
}
