// Package interp executes MPL programs on simulated MPI ranks. It is the
// stand-in for running the compiled, instrumented binary: every MPI intrinsic
// is forwarded to the mpisim runtime (whose tracer observes the event), and
// every control structure is bracketed with the structure markers the paper's
// compiler inserts (PMPI_COMM_Structure / _Exit, Figure 9), following the
// trace.Sink protocol.
package interp

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// RunProgram parses, checks, and executes MPL source on n simulated ranks,
// returning the simulated job time in nanoseconds. sinks may be nil (no
// tracing) or contain one Sink per rank.
func RunProgram(src string, n int, params mpisim.Params, sinks []trace.Sink) (float64, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return 0, err
	}
	if _, err := lang.Check(prog); err != nil {
		return 0, err
	}
	return mpisim.Run(n, params, sinks, func(r *mpisim.Rank) {
		Execute(prog, r)
	})
}

// Execute runs prog's main function on rank r. The program must have passed
// lang.Check, whose resolved slots, frame sizes and callees it runs on.
// Runtime errors (division by zero, bad message sizes, undefined behavior)
// panic; mpisim.Run converts rank panics into errors.
func Execute(prog *lang.Program, r *mpisim.Rank) {
	if !prog.Checked() {
		panic("interp: program has not passed lang.Check")
	}
	ex := &executor{
		rank:  r,
		sink:  r.Sink(),
		reqs:  map[int64]*mpisim.Request{},
		stack: make([]int64, 0, 256),
	}
	r.Init()
	mainFn := prog.ByName["main"]
	if mainFn == nil {
		panic("interp: program has no main")
	}
	ex.callUser(mainFn, ex.reserve(mainFn))
	r.Finalize()
}

// executor runs one rank. Variables live in one frame stack: an activation
// of fn owns stack[fp : fp+fn.FrameSize], and an identifier's value is
// stack[fp+slot]. A call may reallocate the stack, so stores evaluate their
// value before they index it.
type executor struct {
	rank  *mpisim.Rank
	sink  trace.Sink
	reqs  map[int64]*mpisim.Request
	stack []int64
	fp    int
	depth int
}

// reserve pushes a frame for fn on top of the stack and returns its base.
func (ex *executor) reserve(fn *lang.FuncDecl) int {
	base := len(ex.stack)
	ex.stack = slices.Grow(ex.stack, int(fn.FrameSize))[:base+int(fn.FrameSize)]
	return base
}

// callUser runs fn in the frame at base, which holds its arguments, and
// pops that frame on return.
func (ex *executor) callUser(fn *lang.FuncDecl, base int) int64 {
	ex.depth++
	if ex.depth > 1<<16 {
		panic(fmt.Sprintf("interp: recursion deeper than %d in %s", 1<<16, fn.Name))
	}
	callerFP := ex.fp
	ex.fp = base
	_, val := ex.block(fn.Body)
	ex.fp = callerFP
	ex.stack = ex.stack[:base]
	ex.depth--
	return val
}

// block executes a statement list; it reports whether a return unwound and
// the return value.
func (ex *executor) block(b *lang.Block) (bool, int64) {
	for _, s := range b.Stmts {
		if ret, v := ex.stmt(s); ret {
			return true, v
		}
	}
	return false, 0
}

func (ex *executor) stmt(s lang.Stmt) (bool, int64) {
	switch s := s.(type) {
	case *lang.VarStmt:
		v := ex.eval(s.Init)
		ex.stack[ex.fp+int(s.Slot)] = v
		return false, 0
	case *lang.AssignStmt:
		v := ex.eval(s.Value)
		ex.stack[ex.fp+int(s.Slot)] = v
		return false, 0
	case *lang.ExprStmt:
		ex.eval(s.X)
		return false, 0
	case *lang.ReturnStmt:
		if s.Value != nil {
			return true, ex.eval(s.Value)
		}
		return true, 0
	case *lang.Block:
		return ex.block(s)
	case *lang.IfStmt:
		site := int32(s.ID())
		if truthy(ex.eval(s.Cond)) {
			ex.sink.BranchEnter(site, 0)
			ret, v := ex.block(s.Then)
			ex.sink.StructExit()
			return ret, v
		}
		if s.Else != nil {
			ex.sink.BranchEnter(site, 1)
			ret, v := ex.stmt(s.Else)
			ex.sink.StructExit()
			return ret, v
		}
		ex.sink.BranchSkip(site)
		return false, 0
	case *lang.ForStmt:
		site := int32(s.ID())
		if s.Init != nil {
			if ret, v := ex.stmt(s.Init); ret {
				return ret, v
			}
		}
		ex.sink.LoopEnter(site)
		for truthy(ex.eval(s.Cond)) {
			ex.sink.LoopIter(site)
			if ret, v := ex.block(s.Body); ret {
				ex.sink.StructExit()
				return ret, v
			}
			if s.Post != nil {
				if ret, v := ex.stmt(s.Post); ret {
					ex.sink.StructExit()
					return ret, v
				}
			}
		}
		ex.sink.StructExit()
		return false, 0
	case *lang.WhileStmt:
		site := int32(s.ID())
		ex.sink.LoopEnter(site)
		for truthy(ex.eval(s.Cond)) {
			ex.sink.LoopIter(site)
			if ret, v := ex.block(s.Body); ret {
				ex.sink.StructExit()
				return ret, v
			}
		}
		ex.sink.StructExit()
		return false, 0
	}
	panic(fmt.Sprintf("interp: unknown statement %T", s))
}

func truthy(v int64) bool { return v != 0 }

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (ex *executor) eval(e lang.Expr) int64 {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value
	case *lang.AnyLit:
		return int64(trace.AnySource)
	case *lang.Ident:
		switch e.Slot {
		case lang.SlotRank:
			return int64(ex.rank.ID())
		case lang.SlotSize:
			return int64(ex.rank.Size())
		}
		return ex.stack[ex.fp+int(e.Slot)]
	case *lang.UnaryExpr:
		v := ex.eval(e.X)
		if e.Neg {
			return -v
		}
		return boolToInt(v == 0)
	case *lang.BinaryExpr:
		l := ex.eval(e.L)
		r := ex.eval(e.R)
		switch e.Op {
		case lang.OpAdd:
			return l + r
		case lang.OpSub:
			return l - r
		case lang.OpMul:
			return l * r
		case lang.OpDiv:
			if r == 0 {
				panic(fmt.Sprintf("interp: %s: division by zero", e.Pos()))
			}
			return l / r
		case lang.OpMod:
			if r == 0 {
				panic(fmt.Sprintf("interp: %s: modulo by zero", e.Pos()))
			}
			return l % r
		case lang.OpLt:
			return boolToInt(l < r)
		case lang.OpGt:
			return boolToInt(l > r)
		case lang.OpLe:
			return boolToInt(l <= r)
		case lang.OpGe:
			return boolToInt(l >= r)
		case lang.OpEq:
			return boolToInt(l == r)
		case lang.OpNe:
			return boolToInt(l != r)
		case lang.OpAnd:
			return boolToInt(truthy(l) && truthy(r))
		case lang.OpOr:
			return boolToInt(truthy(l) || truthy(r))
		}
		panic(fmt.Sprintf("interp: unknown operator %v", e.Op))
	case *lang.CallExpr:
		if e.Callee != nil {
			return ex.call(e)
		}
		return ex.intrinsic(e)
	}
	panic(fmt.Sprintf("interp: unknown expression %T", e))
}

// call evaluates a user call's arguments straight into the callee's
// frame, reserved before the first argument so that calls inside the
// arguments push their frames above it.
func (ex *executor) call(e *lang.CallExpr) int64 {
	base := ex.reserve(e.Callee)
	for i, a := range e.Args {
		v := ex.eval(a)
		ex.stack[base+i] = v
	}
	ex.sink.CallEnter(int32(e.ID()))
	v := ex.callUser(e.Callee, base)
	ex.sink.StructExit()
	return v
}

const maxMsgSize = 1 << 30

func (ex *executor) msgSize(e *lang.CallExpr, v int64) int {
	if v < 0 || v > maxMsgSize {
		panic(fmt.Sprintf("interp: %s: message size %d out of range", e.Pos(), v))
	}
	return int(v)
}

// maxIntrinsicArgs is the largest arity in lang.Intrinsics.
const maxIntrinsicArgs = 3

func (ex *executor) intrinsic(e *lang.CallExpr) int64 {
	var args [maxIntrinsicArgs]int64
	for i, a := range e.Args {
		args[i] = ex.eval(a)
	}
	r := ex.rank
	op := e.Intrinsic
	if op.IsComm() {
		ex.sink.CommSite(int32(e.ID()))
	}
	switch op {
	case lang.InSend:
		r.Send(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
	case lang.InRecv:
		r.Recv(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
	case lang.InIsend:
		req := r.Isend(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
		ex.reqs[int64(req.ID)] = req
		return int64(req.ID)
	case lang.InIrecv:
		req := r.Irecv(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
		ex.reqs[int64(req.ID)] = req
		return int64(req.ID)
	case lang.InWait:
		req, ok := ex.reqs[args[0]]
		if !ok {
			panic(fmt.Sprintf("interp: %s: wait on unknown request %d", e.Pos(), args[0]))
		}
		r.Wait(req)
		delete(ex.reqs, args[0])
	case lang.InWaitall:
		r.Waitall()
		clear(ex.reqs)
	case lang.InWaitsome:
		return int64(r.Waitsome())
	case lang.InTestany:
		return int64(r.Testany())
	case lang.InBarrier:
		r.Barrier()
	case lang.InBcast:
		r.Bcast(int(args[0]), ex.msgSize(e, args[1]))
	case lang.InReduce:
		r.Reduce(int(args[0]), ex.msgSize(e, args[1]))
	case lang.InAllreduce:
		r.Allreduce(ex.msgSize(e, args[0]))
	case lang.InGather:
		r.Gather(int(args[0]), ex.msgSize(e, args[1]))
	case lang.InScatter:
		r.Scatter(int(args[0]), ex.msgSize(e, args[1]))
	case lang.InAllgather:
		r.Allgather(ex.msgSize(e, args[0]))
	case lang.InAlltoall:
		r.Alltoall(ex.msgSize(e, args[0]))
	case lang.InCompute:
		if args[0] < 0 {
			panic(fmt.Sprintf("interp: %s: negative compute time %d", e.Pos(), args[0]))
		}
		r.Compute(float64(args[0]))
	case lang.InMin:
		if args[0] < args[1] {
			return args[0]
		}
		return args[1]
	case lang.InMax:
		if args[0] > args[1] {
			return args[0]
		}
		return args[1]
	case lang.InLog2:
		if args[0] < 1 {
			panic(fmt.Sprintf("interp: %s: log2 of %d", e.Pos(), args[0]))
		}
		return int64(bits.Len64(uint64(args[0])) - 1)
	default:
		panic(fmt.Sprintf("interp: unknown intrinsic %q", e.Name))
	}
	return 0
}
