package lang

import (
	"fmt"
	"reflect"
	"testing"
)

const resolveSrc = `
func main() {
	var x = rank;
	{
		var x = x + size;
		var y = f(x, 2);
		x = y;
	}
	for var i = 0; i < 3; i = i + 1 {
		var z = i;
		x = x + z;
	}
	{ var w = 1; allreduce(w); }
	send(0, max(x, 1), 0);
}
func f(a, b) { var c = a + b; return c; }`

// resolution lists what Check recorded on prog: one line per annotated
// node, in source order.
func resolution(prog *Program) []string {
	var out []string
	var expr func(Expr)
	expr = func(e Expr) {
		switch e := e.(type) {
		case *Ident:
			out = append(out, fmt.Sprintf("ident %s slot %d", e.Name, e.Slot))
		case *UnaryExpr:
			expr(e.X)
		case *BinaryExpr:
			expr(e.L)
			expr(e.R)
		case *CallExpr:
			for _, a := range e.Args {
				expr(a)
			}
			callee := "-"
			if e.Callee != nil {
				callee = e.Callee.Name
			}
			out = append(out, fmt.Sprintf("call %s intrinsic %d callee %s", e.Name, e.Intrinsic, callee))
		}
	}
	var stmt func(Stmt)
	stmt = func(s Stmt) {
		switch s := s.(type) {
		case *Block:
			for _, st := range s.Stmts {
				stmt(st)
			}
		case *VarStmt:
			expr(s.Init)
			out = append(out, fmt.Sprintf("var %s slot %d", s.Name, s.Slot))
		case *AssignStmt:
			expr(s.Value)
			out = append(out, fmt.Sprintf("assign %s slot %d", s.Name, s.Slot))
		case *ExprStmt:
			expr(s.X)
		case *ReturnStmt:
			if s.Value != nil {
				expr(s.Value)
			}
		case *ForStmt:
			stmt(s.Init)
			expr(s.Cond)
			stmt(s.Post)
			stmt(s.Body)
		}
	}
	for _, fn := range prog.Funcs {
		out = append(out, fmt.Sprintf("func %s frame %d", fn.Name, fn.FrameSize))
		stmt(fn.Body)
	}
	return out
}

func TestCheckResolvesSlotsAndCallees(t *testing.T) {
	prog, err := Parse(resolveSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Checked() {
		t.Fatal("a parsed program must not report Checked")
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if !prog.Checked() {
		t.Fatal("Check did not mark the program")
	}
	want := []string{
		"func main frame 3",
		fmt.Sprintf("ident rank slot %d", SlotRank),
		"var x slot 0",
		"ident x slot 0",
		fmt.Sprintf("ident size slot %d", SlotSize),
		"var x slot 1", // shadows slot 0
		"ident x slot 1",
		fmt.Sprintf("call f intrinsic %d callee f", NotIntrinsic),
		"var y slot 2",
		"ident y slot 2",
		"assign x slot 1",
		"var i slot 1", // the block's slots are free again
		"ident i slot 1",
		"ident i slot 1",
		"assign i slot 1",
		"ident i slot 1",
		"var z slot 2",
		"ident x slot 0",
		"ident z slot 2",
		"assign x slot 0",
		"var w slot 1",
		"ident w slot 1",
		fmt.Sprintf("call allreduce intrinsic %d callee -", InAllreduce),
		"ident x slot 0",
		fmt.Sprintf("call max intrinsic %d callee -", InMax),
		fmt.Sprintf("call send intrinsic %d callee -", InSend),
		"func f frame 3",
		"ident a slot 0",
		"ident b slot 1",
		"var c slot 2",
		"ident c slot 2",
	}
	got := resolution(prog)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resolution\n got %q\nwant %q", got, want)
	}

	// A second Check, as cst.Build runs on a compiled program, records the
	// same values.
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if again := resolution(prog); !reflect.DeepEqual(again, got) {
		t.Fatalf("second Check changed the resolution:\n got %q\nwant %q", again, got)
	}
}
