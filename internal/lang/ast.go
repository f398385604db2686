package lang

import "fmt"

// NodeID identifies an AST node. IDs are assigned densely by the parser in
// creation order and are stable for a given source text; the instrumenter and
// the CST builder use them to link runtime structure markers to static
// vertices (the paper's PMPI_COMM_Structure id argument).
type NodeID int32

// NoNode marks the absence of a node reference.
const NoNode NodeID = -1

// Node is implemented by every AST node.
type Node interface {
	ID() NodeID
	Pos() Pos
}

type base struct {
	id  NodeID
	pos Pos
}

func (b base) ID() NodeID { return b.id }
func (b base) Pos() Pos   { return b.pos }

// Program is a whole MPL translation unit.
type Program struct {
	base
	Funcs []*FuncDecl
	// ByName indexes functions for call resolution.
	ByName map[string]*FuncDecl
	// NumNodes is one past the largest NodeID assigned.
	NumNodes int32
	// checked is set by a successful Check, whose name resolution the
	// interpreter runs on.
	checked bool
}

// Checked reports whether the program has passed Check, and so carries the
// resolved slots, frame sizes and callees the interpreter needs.
func (p *Program) Checked() bool { return p.checked }

// Slot codes for the predeclared variables. Check resolves every other
// variable to a frame slot >= 0.
const (
	SlotRank int32 = -1
	SlotSize int32 = -2
)

// FuncDecl is a function definition.
type FuncDecl struct {
	base
	Name   string
	Params []string
	Body   *Block
	// FrameSize is the number of variable slots one activation needs, set
	// by Check. Parameters occupy slots 0..len(Params)-1.
	FrameSize int32
}

// Block is a brace-delimited statement list.
type Block struct {
	base
	Stmts []Stmt
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmt()
}

// VarStmt declares and initializes a variable: var x = expr;
type VarStmt struct {
	base
	Name string
	Init Expr
	// Slot is the frame slot Check gave the declared variable; a name that
	// shadows another gets a slot of its own.
	Slot int32
}

// AssignStmt assigns to an existing variable: x = expr;
type AssignStmt struct {
	base
	Name  string
	Value Expr
	// Slot is the frame slot of the variable Check resolved Name to.
	Slot int32
}

// IfStmt is a two-way branch; Else may be nil, a *Block, or another *IfStmt
// (else-if chains).
type IfStmt struct {
	base
	Cond Expr
	Then *Block
	Else Stmt
}

// ForStmt is a C-style loop: for init; cond; post { body }.
// Init and Post may be nil; Cond may be nil (infinite loop is rejected by
// the checker since MPL has no break).
type ForStmt struct {
	base
	Init Stmt // VarStmt or AssignStmt
	Cond Expr
	Post Stmt // AssignStmt
	Body *Block
}

// WhileStmt is a condition-controlled loop.
type WhileStmt struct {
	base
	Cond Expr
	Body *Block
}

// ReturnStmt exits the current function; Value may be nil.
type ReturnStmt struct {
	base
	Value Expr
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	base
	X Expr
}

func (*VarStmt) stmt()    {}
func (*AssignStmt) stmt() {}
func (*IfStmt) stmt()     {}
func (*ForStmt) stmt()    {}
func (*WhileStmt) stmt()  {}
func (*ReturnStmt) stmt() {}
func (*ExprStmt) stmt()   {}
func (*Block) stmt()      {}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	base
	Value int64
}

// Ident references a variable (or the builtins rank/size).
type Ident struct {
	base
	Name string
	// Slot is the frame slot Check resolved Name to, or SlotRank/SlotSize.
	Slot int32
}

// AnyLit is the ANY wildcard source literal.
type AnyLit struct {
	base
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||"}

func (op BinOp) String() string { return binOpNames[op] }

// BinaryExpr applies a binary operator. Logical && and || evaluate both
// operands eagerly (no short-circuit CFG edges), which keeps branch structure
// in the CST one-to-one with source if statements.
type BinaryExpr struct {
	base
	Op   BinOp
	L, R Expr
}

// UnaryExpr applies unary minus or logical not.
type UnaryExpr struct {
	base
	Neg bool // true: -x, false: !x
	X   Expr
}

// CallExpr invokes a user-defined function or an MPI/builtin intrinsic.
type CallExpr struct {
	base
	Name string
	Args []Expr
	// Check resolves the call: Intrinsic is the builtin's opcode, or
	// NotIntrinsic for a user function, whose declaration is Callee.
	Intrinsic IntrinsicOp
	Callee    *FuncDecl
}

func (*IntLit) expr()     {}
func (*Ident) expr()      {}
func (*AnyLit) expr()     {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*CallExpr) expr()   {}

// IntrinsicOp is a builtin's opcode. The communication intrinsics form
// the range InSend..InAlltoall.
type IntrinsicOp uint8

const (
	NotIntrinsic IntrinsicOp = iota
	InSend
	InRecv
	InIsend
	InIrecv
	InWait
	InWaitall
	InWaitsome
	InTestany
	InBarrier
	InBcast
	InReduce
	InAllreduce
	InGather
	InScatter
	InAllgather
	InAlltoall
	InCompute
	InMin
	InMax
	InLog2
)

// IsComm reports whether the intrinsic emits an MPI event.
func (op IntrinsicOp) IsComm() bool { return op >= InSend && op <= InAlltoall }

// Intrinsic describes a builtin callable.
type Intrinsic struct {
	Name   string
	Op     IntrinsicOp
	Arity  int
	HasRet bool // produces a value
}

// Intrinsics is the builtin table. Communication intrinsics mirror the MPI
// routines the paper's runtime intercepts; compute advances the synthetic
// compute clock; min/max/log2 are arithmetic helpers.
var Intrinsics = map[string]Intrinsic{
	"send":      {"send", InSend, 3, false},        // send(dest, bytes, tag)
	"recv":      {"recv", InRecv, 3, false},        // recv(src|ANY, bytes, tag)
	"isend":     {"isend", InIsend, 3, true},       // req = isend(dest, bytes, tag)
	"irecv":     {"irecv", InIrecv, 3, true},       // req = irecv(src|ANY, bytes, tag)
	"wait":      {"wait", InWait, 1, false},        // wait(req)
	"waitall":   {"waitall", InWaitall, 0, false},  // waits all pending requests
	"waitsome":  {"waitsome", InWaitsome, 0, true}, // completes >=1 pending, returns count
	"testany":   {"testany", InTestany, 0, true},   // completes <=1 pending, returns 0/1
	"barrier":   {"barrier", InBarrier, 0, false},
	"bcast":     {"bcast", InBcast, 2, false},         // bcast(root, bytes)
	"reduce":    {"reduce", InReduce, 2, false},       // reduce(root, bytes)
	"allreduce": {"allreduce", InAllreduce, 1, false}, // allreduce(bytes)
	"gather":    {"gather", InGather, 2, false},
	"scatter":   {"scatter", InScatter, 2, false},
	"allgather": {"allgather", InAllgather, 1, false},
	"alltoall":  {"alltoall", InAlltoall, 1, false},
	"compute":   {"compute", InCompute, 1, false}, // compute(ns)
	"min":       {"min", InMin, 2, true},
	"max":       {"max", InMax, 2, true},
	"log2":      {"log2", InLog2, 1, true}, // floor(log2(x)), x >= 1
}

// IsIntrinsic reports whether name is a builtin.
func IsIntrinsic(name string) bool {
	_, ok := Intrinsics[name]
	return ok
}

// Error is a positioned front-end error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
