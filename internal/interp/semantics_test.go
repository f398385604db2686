package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// valueSink records the calls and events of one rank as a script of
// tokens: "call f" for CallEnter, "site g" for CommSite, "exit" for the
// StructExit that closes a call, and "op size" per event ("allreduce 5").
// Loop and branch markers are only counted, so that the scripts show the
// values a program computes and the order it calls in.
type valueSink struct {
	names  map[int32]string // call site -> callee name
	script []string
	open   []bool // per open structure: is it a call?
	depth  int    // open structures, must end at 0
}

func (v *valueSink) push(call bool) { v.open = append(v.open, call) }

func (v *valueSink) LoopEnter(int32)         { v.push(false) }
func (v *valueSink) LoopIter(int32)          {}
func (v *valueSink) BranchEnter(int32, int8) { v.push(false) }
func (v *valueSink) BranchSkip(int32)        {}
func (v *valueSink) CallEnter(site int32) {
	v.push(true)
	v.script = append(v.script, "call "+v.names[site])
}
func (v *valueSink) StructExit() {
	if v.open[len(v.open)-1] {
		v.script = append(v.script, "exit")
	}
	v.open = v.open[:len(v.open)-1]
}
func (v *valueSink) CommSite(site int32) { v.script = append(v.script, "site "+v.names[site]) }
func (v *valueSink) Event(e *trace.Event) {
	switch e.Op {
	case trace.OpInit, trace.OpFinalize:
		return
	}
	tok := fmt.Sprintf("%s %d", strings.ToLower(strings.TrimPrefix(e.Op.String(), "MPI_")), e.Size)
	if e.ComputeNS != 0 {
		tok += fmt.Sprintf(" after %g", e.ComputeNS)
	}
	v.script = append(v.script, tok)
}
func (v *valueSink) Finalize() { v.depth = len(v.open) }

// callSiteNames maps every call site of prog to its callee name.
func callSiteNames(prog *lang.Program) map[int32]string {
	names := map[int32]string{}
	var expr func(lang.Expr)
	expr = func(e lang.Expr) {
		lang.WalkCallsInEvalOrder(e, func(c *lang.CallExpr) { names[int32(c.ID())] = c.Name })
	}
	var stmt func(lang.Stmt)
	stmt = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.Block:
			for _, st := range s.Stmts {
				stmt(st)
			}
		case *lang.VarStmt:
			expr(s.Init)
		case *lang.AssignStmt:
			expr(s.Value)
		case *lang.ExprStmt:
			expr(s.X)
		case *lang.ReturnStmt:
			if s.Value != nil {
				expr(s.Value)
			}
		case *lang.IfStmt:
			expr(s.Cond)
			stmt(s.Then)
			if s.Else != nil {
				stmt(s.Else)
			}
		case *lang.ForStmt:
			if s.Init != nil {
				stmt(s.Init)
			}
			expr(s.Cond)
			if s.Post != nil {
				stmt(s.Post)
			}
			stmt(s.Body)
		case *lang.WhileStmt:
			expr(s.Cond)
			stmt(s.Body)
		}
	}
	for _, fn := range prog.Funcs {
		stmt(fn.Body)
	}
	return names
}

// runValues runs src on one rank without network costs and returns its
// script.
func runValues(t *testing.T, src string) []string {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	v := &valueSink{names: callSiteNames(prog)}
	if _, err := mpisim.Run(1, mpisim.Params{}, []trace.Sink{v}, func(r *mpisim.Rank) { Execute(prog, r) }); err != nil {
		t.Fatal(err)
	}
	if v.depth != 0 {
		t.Fatalf("%d structures still open at Finalize", v.depth)
	}
	return v.script
}

// TestScopeAndFrameSemantics pins how names resolve and frames behave:
// each case's script lists the calls and comm sites in execution order and
// every event with its size, which the programs use to expose values.
func TestScopeAndFrameSemantics(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"shadowed name in a nested block", `
func main() {
	var x = 1;
	{
		var x = x + 10;
		allreduce(x);
		{ var x = 100; allreduce(x); }
		allreduce(x);
	}
	allreduce(x);
}`, "site allreduce|allreduce 11|site allreduce|allreduce 100|site allreduce|allreduce 11|site allreduce|allreduce 1"},
		{"parameter shadowed in the body", `
func main() { allreduce(f(4)); }
func f(x) { var x = x + 1; return x * 2; }`,
			"call f|exit|site allreduce|allreduce 10"},
		{"var redeclared in a loop body each iteration", `
func main() {
	for var i = 0; i < 3; i = i + 1 {
		var y = i * 10;
		allreduce(y + 1);
		y = 7;
	}
}`, "site allreduce|allreduce 1|site allreduce|allreduce 11|site allreduce|allreduce 21"},
		{"for-init scope ends with the loop", `
func main() {
	var i = 100;
	for var i = 0; i < 2; i = i + 1 { allreduce(i + 1); }
	allreduce(i);
}`, "site allreduce|allreduce 1|site allreduce|allreduce 2|site allreduce|allreduce 100"},
		{"assignment to an outer variable from inner blocks", `
func main() {
	var s = 0;
	var n = 1;
	for var i = 1; i <= 3; i = i + 1 {
		if i > 1 { s = s + i; }
		while n < i { n = n + 1; { s = s + 100; } }
	}
	allreduce(s);
	allreduce(n);
}`, "site allreduce|allreduce 205|site allreduce|allreduce 3"},
		{"sibling blocks reuse slots without leaking values", `
func main() {
	{ var a = 5; allreduce(a); }
	{ var b = 6; var c = b + 1; allreduce(c); }
	{ var d = 8; allreduce(d); }
}`, "site allreduce|allreduce 5|site allreduce|allreduce 7|site allreduce|allreduce 8"},
		{"per-call frames under recursion", `
func main() { compute(fib(10)); barrier(); }
func fib(n) {
	if n < 2 { return n; }
	var a = fib(n - 1);
	var b = fib(n - 2);
	return a + b;
}`, fibCalls(10) + "site barrier|barrier 0 after 55"},
		{"arguments that are calls run left to right before the call", `
func main() { allreduce(add(f(1), g(2)) + f(3)); }
func add(x, y) { return x + y; }
func f(x) { allreduce(10 + x); return x; }
func g(x) { allreduce(20 + x); return x * 10; }`,
			"call f|site allreduce|allreduce 11|exit|call g|site allreduce|allreduce 22|exit|" +
				"call add|exit|call f|site allreduce|allreduce 13|exit|site allreduce|allreduce 24"},
		{"intrinsic arguments nest calls", `
func main() { send(0, max(f(2), 1) + min(3, f(5)), f(7)); recv(0, 5, 7); }
func f(x) { return x; }`,
			"call f|exit|call f|exit|call f|exit|site send|send 5|site recv|recv 5"},
		{"early return out of nested loops restores the caller's frame", `
func main() {
	var a = 7;
	var r = find(5, a);
	allreduce(r);
	allreduce(a);
	allreduce(find(2, a) + 100);
	allreduce(a);
}
func find(n, a) {
	for var i = 0; i < n; i = i + 1 {
		var j = 0;
		while j < n {
			if i * j == 6 { return i * 10 + j + a - 7; }
			j = j + 1;
		}
	}
	a = 0;
	return 0 - 1;
}`, "call find|exit|site allreduce|allreduce 23|site allreduce|allreduce 7|" +
			"call find|exit|site allreduce|allreduce 99|site allreduce|allreduce 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.Join(runValues(t, tc.src), "|")
			if got != tc.want {
				t.Fatalf("script\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// fibCalls is the script of one call fib(n): its call and exit markers
// around those of its recursive calls.
func fibCalls(n int) string {
	if n < 2 {
		return "call fib|exit|"
	}
	return "call fib|" + fibCalls(n-1) + fibCalls(n-2) + "exit|"
}

func TestRecursionDepthLimit(t *testing.T) {
	_, err := RunProgram(`
func main() { compute(f(0)); }
func f(n) { return f(n + 1); }`, 1, mpisim.Params{}, nil)
	want := "interp: recursion deeper than 65536 in f"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestUncheckedProgramRejected(t *testing.T) {
	prog, err := lang.Parse(`func main() { var x = 3; allreduce(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpisim.Run(2, mpisim.Params{}, nil, func(r *mpisim.Rank) { Execute(prog, r) })
	want := "interp: program has not passed lang.Check"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := mpisim.Run(2, mpisim.Params{}, nil, func(r *mpisim.Rank) { Execute(prog, r) }); err != nil {
		t.Fatalf("checked program: %v", err)
	}
}
