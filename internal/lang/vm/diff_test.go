package vm

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

// ---------------------------------------------------------------------
// Differential harness: run a program under the interpreter — the
// reference semantics — and the bytecode VM, and require bitwise-
// identical outcomes: same stop point, same error or panic, same
// DistArray contents, same global/accumulator values. A program the VM
// rejects must be one the resolution front end rejects, so the
// interpreter defines it.
// ---------------------------------------------------------------------

const (
	fillFloats = iota // uniform [0,1) values
	fillInts          // small integers 1..6 (usable as subscripts)
)

func buildArrays(env *lang.Env, scheme int, seed int64) map[string]*dsm.DistArray {
	names := make([]string, 0, len(env.Arrays))
	for n := range env.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*dsm.DistArray, len(names))
	for _, n := range names {
		a := dsm.NewDense(n, env.Arrays[n]...)
		a.Map(func(v float64) float64 {
			if scheme == fillInts {
				return float64(1 + rng.Intn(6))
			}
			return rng.Float64()
		})
		out[n] = a
	}
	return out
}

func collectKeys(iter *dsm.DistArray, interior bool) (keys [][]int64, vals []float64) {
	dims := iter.Dims()
	iter.ForEach(func(idx []int64, v float64) {
		if interior {
			for d, c := range idx {
				if c < 1 || c > dims[d]-2 {
					return
				}
			}
		}
		keys = append(keys, idx)
		vals = append(vals, v)
	})
	return keys, vals
}

func diffGlobals(env *lang.Env, loop *lang.Loop, declared []string) map[string]float64 {
	known := map[string]float64{
		"step_size": 0.05, "K": 6, "alpha": 0.1, "beta": 0.01, "vbeta": 0.8,
	}
	accums := map[string]bool{}
	for _, a := range lang.Accumulators(loop) {
		accums[a] = true
	}
	set := map[string]bool{}
	var names []string
	add := func(ns []string) {
		for _, n := range ns {
			if !set[n] {
				set[n] = true
				names = append(names, n)
			}
		}
	}
	add(declared)
	if spec, err := lang.Analyze(loop, env); err == nil {
		add(spec.Inherited)
	}
	add(lang.Accumulators(loop))
	sort.Strings(names)
	out := make(map[string]float64, len(names))
	for i, n := range names {
		switch {
		case accums[n]:
			out[n] = 0
		default:
			if v, ok := known[n]; ok {
				out[n] = v
			} else {
				out[n] = 0.3 + 0.11*float64(i)
			}
		}
	}
	return out
}

type backendResult struct {
	arrays   map[string]*dsm.DistArray
	stop     int
	errMsg   string
	panicked bool
	panicMsg string
	globals  map[string]float64
}

func runOne(step func(i int) error, n int) (stop int, errMsg string, panicked bool, panicMsg string) {
	for i := 0; i < n; i++ {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					panicked = true
					panicMsg = fmt.Sprint(r)
				}
			}()
			err = step(i)
		}()
		if panicked {
			return i, "", true, panicMsg
		}
		if err != nil {
			return i, err.Error(), false, ""
		}
	}
	return n, "", false, ""
}

type diffConfig struct {
	scheme   int
	interior bool
	budget   int64
	vecLimit int64
	seed     int64
	maxIters int
	block    bool  // drive the VM through RunBlock instead of RunIteration
	window   int64 // > 0: bind arrays through partition windows (windowView) cut by this seed
}

// windowView binds an array through one dsm.Partition — global
// coordinates, a dense window [Lo, Hi) along the partition dimension,
// and the partition's reference At/SetAt (which fault outside the
// window) for everything else: the shape an executor's partitions
// present to a kernel.
type windowView struct {
	*dsm.Partition
	dims []int64
}

func (w windowView) Dims() []int64 { return w.dims }

// bindViews returns the views every backend binds. Without cfg.window
// they are the arrays themselves. With it, each array except the
// iteration space is cut to a window seeded by cfg.window — mostly a
// non-zero-origin range, sometimes the full extent or the degenerate
// Hi == Lo — and writeBack folds the windows back into the arrays
// after the run, so results compare on whole arrays.
func bindViews(prog *lang.Program, arrays map[string]*dsm.DistArray, cfg diffConfig) (views map[string]lang.ArrayAccess, writeBack func()) {
	views = make(map[string]lang.ArrayAccess, len(arrays))
	var parts []*dsm.Partition
	names := make([]string, 0, len(arrays))
	for n := range arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(cfg.window))
	for _, n := range names {
		a := arrays[n]
		if cfg.window == 0 || n == prog.Loop.IterVar {
			views[n] = a
			continue
		}
		dims := a.Dims()
		dim := rng.Intn(len(dims))
		ext := dims[dim]
		var lo, hi int64
		switch r := rng.Intn(8); {
		case r < 2:
			lo, hi = 0, ext
		case r == 2:
			lo = rng.Int63n(ext)
			hi = lo
		case r < 5 && ext > 1:
			// Cut only the low end: most accesses stay in the window.
			lo, hi = 1+rng.Int63n(ext-1), ext
		case r == 5 && ext > 1:
			lo = 1 + rng.Int63n(ext-1)
			hi = lo + 1 + rng.Int63n(ext-lo)
		default:
			lo = rng.Int63n(ext)
			hi = lo + 1 + rng.Int63n(ext-lo)
		}
		p := a.ExtractRange(dim, lo, hi)
		parts = append(parts, p)
		views[n] = windowView{Partition: p, dims: dims}
	}
	return views, func() {
		for _, p := range parts {
			p.WriteBack(arrays[p.Array])
		}
	}
}

func runInterp(prog *lang.Program, globals map[string]float64, cfg diffConfig) backendResult {
	arrays := buildArrays(prog.Env, cfg.scheme, cfg.seed)
	views, writeBack := bindViews(prog, arrays, cfg)
	m := lang.NewMachine()
	for n, a := range views {
		m.Arrays[n] = a
	}
	for n, target := range prog.Env.Buffers {
		m.Buffers[n] = dsm.NewBuffer(arrays[target], nil)
	}
	for n, v := range globals {
		m.Globals[n] = v
	}
	m.Rng = rand.New(rand.NewSource(cfg.seed + 1))
	m.StepBudget = cfg.budget
	m.VecLimit = cfg.vecLimit
	keys, vals := collectKeys(arrays[prog.Loop.IterVar], cfg.interior)
	if cfg.maxIters > 0 && len(keys) > cfg.maxIters {
		keys, vals = keys[:cfg.maxIters], vals[:cfg.maxIters]
	}
	res := backendResult{arrays: arrays, globals: map[string]float64{}}
	res.stop, res.errMsg, res.panicked, res.panicMsg = runOne(func(i int) error {
		return m.RunIteration(prog.Loop, keys[i], vals[i])
	}, len(keys))
	writeBack()
	for n, b := range m.Buffers {
		b.(*dsm.Buffer).Flush(arrays[prog.Env.Buffers[n]])
	}
	for n := range globals {
		res.globals[n] = m.Globals[n].(float64)
	}
	return res
}

func globalNames(globals map[string]float64) []string {
	names := make([]string, 0, len(globals))
	for n := range globals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runVM executes the program on a fresh kernel of p, per iteration or,
// with cfg.block, in one RunBlock call.
func runVM(t *testing.T, prog *lang.Program, globals map[string]float64, cfg diffConfig, p *Prog) backendResult {
	t.Helper()
	k := p.NewKernel()
	arrays := buildArrays(prog.Env, cfg.scheme, cfg.seed)
	views, writeBack := bindViews(prog, arrays, cfg)
	for n, a := range views {
		if err := k.BindArray(n, a); err != nil {
			t.Fatalf("BindArray(%s): %v", n, err)
		}
	}
	bufs := map[string]*dsm.Buffer{}
	for n, target := range prog.Env.Buffers {
		bufs[n] = dsm.NewBuffer(arrays[target], nil)
		if err := k.BindBuffer(n, bufs[n]); err != nil {
			t.Fatalf("BindBuffer(%s): %v", n, err)
		}
	}
	for n, v := range globals {
		if !k.SetGlobal(n, v) {
			t.Fatalf("SetGlobal(%s) not accepted", n)
		}
	}
	k.SetRng(rand.New(rand.NewSource(cfg.seed + 1)))
	k.SetStepBudget(cfg.budget)
	k.SetVecLimit(cfg.vecLimit)
	keys, vals := collectKeys(arrays[prog.Loop.IterVar], cfg.interior)
	if cfg.maxIters > 0 && len(keys) > cfg.maxIters {
		keys, vals = keys[:cfg.maxIters], vals[:cfg.maxIters]
	}
	res := backendResult{arrays: arrays, globals: map[string]float64{}}
	if cfg.block {
		// progress escapes through the onIter callback: when a panic
		// unwinds RunBlock, its return value is lost, but the completed
		// count written per iteration survives.
		var progress int
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.panicked = true
					res.panicMsg = fmt.Sprint(r)
				}
			}()
			done, err := k.RunBlock(keys, vals, func(i int) { progress = i + 1 })
			progress = done
			if err != nil {
				res.errMsg = err.Error()
			}
		}()
		res.stop = progress
	} else {
		res.stop, res.errMsg, res.panicked, res.panicMsg = runOne(func(i int) error {
			return k.RunIteration(keys[i], vals[i])
		}, len(keys))
	}
	writeBack()
	for n, b := range bufs {
		b.Flush(arrays[prog.Env.Buffers[n]])
	}
	for n := range globals {
		v, _ := k.Global(n)
		res.globals[n] = v
	}
	return res
}

func compareResults(t *testing.T, label, bname string, ref, got backendResult) {
	t.Helper()
	if ref.stop != got.stop {
		t.Fatalf("%s: interp stopped after %d iterations, %s after %d (interp err=%q panic=%q; %s err=%q panic=%q)",
			label, ref.stop, bname, got.stop, ref.errMsg, ref.panicMsg, bname, got.errMsg, got.panicMsg)
	}
	if ref.errMsg != got.errMsg {
		t.Fatalf("%s: error mismatch:\ninterp: %q\n%s: %q", label, ref.errMsg, bname, got.errMsg)
	}
	if ref.panicked != got.panicked || ref.panicMsg != got.panicMsg {
		t.Fatalf("%s: panic mismatch:\ninterp: %v %q\n%s: %v %q",
			label, ref.panicked, ref.panicMsg, bname, got.panicked, got.panicMsg)
	}
	for n, a := range ref.arrays {
		b := got.arrays[n]
		mismatch := ""
		a.ForEach(func(idx []int64, v float64) {
			if mismatch != "" {
				return
			}
			if w := b.At(idx...); canonBits(w) != canonBits(v) {
				mismatch = fmt.Sprintf("array %s%v: interp %v, %s %v", n, idx, v, bname, w)
			}
		})
		if mismatch != "" {
			t.Fatalf("%s: %s", label, mismatch)
		}
	}
	for n, v := range ref.globals {
		if w := got.globals[n]; canonBits(w) != canonBits(v) {
			t.Fatalf("%s: global %s: interp %v, %s %v", label, n, v, bname, w)
		}
	}
}

// canonBits is Float64bits with NaN payloads collapsed to one value.
// Go leaves NaN propagation unspecified — with two NaN operands, which
// payload `a*b` returns depends on the operand the compiler places in
// the destination register, so independently compiled backends can
// legitimately disagree on NaN sign and payload bits. Every non-NaN
// value still compares bitwise, signed zeros included.
func canonBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// diffProgram runs one parsed program under the interpreter and the
// VM. It returns false when the program is outside the compiled subset
// — in which case the VM must have rejected it with the same
// *lang.NotCompilableError as the resolution front end, leaving the
// program to the interpreter.
func diffProgram(t *testing.T, label string, prog *lang.Program, cfg diffConfig) bool {
	t.Helper()
	globals := diffGlobals(prog.Env, prog.Loop, prog.Globals)
	cenv := &lang.CompileEnv{
		Arrays:  prog.Env.Arrays,
		Buffers: prog.Env.Buffers,
		Globals: globalNames(globals),
	}
	p, vmErr := Compile(prog.Loop, cenv)
	if vmErr != nil {
		if _, ok := vmErr.(*lang.NotCompilableError); !ok {
			t.Fatalf("%s: vm.Compile failed with %T: %v", label, vmErr, vmErr)
		}
		if _, resErr := lang.ResolveLoop(prog.Loop, cenv); resErr == nil || resErr.Error() != vmErr.Error() {
			t.Fatalf("%s: vm.Compile rejected a loop the front end resolves as %v:\nvm: %v", label, resErr, vmErr)
		}
		return false
	}
	compareResults(t, label, "vm", runInterp(prog, globals, cfg), runVM(t, prog, globals, cfg, p))
	return true
}

func exampleProgramSources(t testing.TB) map[string]string {
	pattern := filepath.Join("..", "..", "..", "examples", "*", "*.orion")
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found at %s (err=%v)", pattern, err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		out[filepath.Base(f)] = string(src)
	}
	return out
}

// TestDifferentialExamples: every shipped example must compile on the
// VM and match the interpreter bitwise across fill schemes, walk
// restrictions, and both the per-iteration and batched (RunBlock) VM
// drivers.
func TestDifferentialExamples(t *testing.T) {
	for name, src := range exampleProgramSources(t) {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, scheme := range []int{fillFloats, fillInts} {
			for _, interior := range []bool{false, true} {
				for _, block := range []bool{false, true} {
					label := fmt.Sprintf("%s/scheme=%d/interior=%v/block=%v", name, scheme, interior, block)
					cfg := diffConfig{scheme: scheme, interior: interior, seed: 42, block: block}
					if !diffProgram(t, label, prog, cfg) {
						t.Fatalf("%s: example is outside the compiled subset", label)
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Randomized differential property tests.
// ---------------------------------------------------------------------

func typedFloatExpr(rng *rand.Rand, depth int) lang.Expr {
	if depth <= 0 {
		switch rng.Intn(7) {
		case 0:
			return &lang.Num{Val: float64(rng.Intn(5))}
		case 1:
			return &lang.Ident{Name: "x"}
		case 2:
			return &lang.Ident{Name: "y"}
		case 3:
			return &lang.Ident{Name: "g"}
		case 4:
			return &lang.Ident{Name: "v"}
		case 5:
			return &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: float64(1 + rng.Intn(2))}}}
		default:
			return &lang.Num{Val: rng.Float64()}
		}
	}
	switch rng.Intn(8) {
	case 0:
		ops := []string{"+", "-", "*", "/"}
		return &lang.BinOp{Op: ops[rng.Intn(len(ops))],
			L: typedFloatExpr(rng, depth-1), R: typedFloatExpr(rng, depth-1)}
	case 1:
		return &lang.UnOp{Op: "-", X: typedFloatExpr(rng, depth-1)}
	case 2:
		fns := []string{"abs", "abs2", "sqrt", "exp", "sigmoid", "floor", "ceil"}
		return &lang.Call{Fn: fns[rng.Intn(len(fns))], Args: []lang.Expr{typedFloatExpr(rng, depth-1)}}
	case 3:
		fn := []string{"min", "max"}[rng.Intn(2)]
		return &lang.Call{Fn: fn, Args: []lang.Expr{typedFloatExpr(rng, depth-1), typedFloatExpr(rng, depth-1)}}
	case 4:
		return &lang.Index{Base: "A", Subs: []lang.Expr{typedSub(rng), typedSub(rng)}}
	case 5:
		return &lang.Call{Fn: "dot", Args: []lang.Expr{typedVecExpr(rng, depth-1), typedVecExpr(rng, depth-1)}}
	case 6:
		return &lang.Index{Base: "p", Subs: []lang.Expr{typedSub(rng)}}
	default:
		return &lang.Call{Fn: "rand"}
	}
}

func typedSub(rng *rand.Rand) lang.Expr {
	switch rng.Intn(6) {
	case 0:
		return &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: 2}}}
	case 1:
		return &lang.Ident{Name: "x"}
	default:
		return &lang.Num{Val: float64(1 + rng.Intn(4))}
	}
}

func typedVecExpr(rng *rand.Rand, depth int) lang.Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return &lang.Index{Base: "A", Subs: []lang.Expr{&lang.RangeExpr{Full: true}, typedSub(rng)}}
		case 1:
			return &lang.Call{Fn: "zeros", Args: []lang.Expr{&lang.Num{Val: 4}}}
		case 2:
			// A length-3 partial range (B's column length) along either
			// dimension: the materialized bulk-read shape.
			lo := float64(1 + rng.Intn(2))
			r := &lang.RangeExpr{Lo: &lang.Num{Val: lo}, Hi: &lang.Num{Val: lo + 2}}
			if rng.Intn(2) == 0 {
				return &lang.Index{Base: "A", Subs: []lang.Expr{r, typedSub(rng)}}
			}
			return &lang.Index{Base: "A", Subs: []lang.Expr{typedSub(rng), r}}
		default:
			return &lang.Ident{Name: "p"}
		}
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"+", "-", "*"}
		return &lang.BinOp{Op: ops[rng.Intn(len(ops))],
			L: typedVecExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}
	case 1:
		return &lang.BinOp{Op: "*", L: typedFloatExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}
	case 2:
		// The AxpyRow fusion shape: vec ± scalar*vec.
		return &lang.BinOp{Op: []string{"+", "-"}[rng.Intn(2)],
			L: typedVecExpr(rng, depth-1),
			R: &lang.BinOp{Op: "*", L: typedFloatExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}}
	case 3:
		return &lang.UnOp{Op: "-", X: typedVecExpr(rng, depth-1)}
	default:
		return typedVecExpr(rng, 0)
	}
}

func typedStmt(rng *rand.Rand, depth int) lang.Stmt {
	ops := []string{"=", "+=", "-=", "*=", "/="}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 0:
			return &lang.Assign{Target: &lang.Ident{Name: []string{"x", "y"}[rng.Intn(2)]},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 1:
			v := typedVecExpr(rng, 2)
			op := "="
			if _, isIdent := v.(*lang.Ident); isIdent || rng.Intn(2) == 0 {
				op = []string{"+=", "-=", "*="}[rng.Intn(3)]
			}
			return &lang.Assign{Target: &lang.Ident{Name: "p"}, Op: op, Value: v}
		case 2:
			return &lang.Assign{Target: &lang.Index{Base: "p", Subs: []lang.Expr{typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 3:
			return &lang.Assign{Target: &lang.Index{Base: "A", Subs: []lang.Expr{typedSub(rng), typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 4:
			return &lang.Assign{Target: &lang.Index{Base: "A", Subs: []lang.Expr{&lang.RangeExpr{Full: true}, typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedVecExpr(rng, 2)}
		case 5:
			// Partial-range store or update along either dimension
			// (strided on the second), with a vector or a broadcast
			// scalar operand.
			lo := float64(1 + rng.Intn(2))
			r := &lang.RangeExpr{Lo: &lang.Num{Val: lo}, Hi: &lang.Num{Val: lo + float64(1+rng.Intn(4-int(lo)))}}
			subs := []lang.Expr{typedSub(rng), r}
			if rng.Intn(3) == 0 {
				subs[0], subs[1] = r, subs[0]
			}
			if rng.Intn(3) == 0 {
				return &lang.Assign{Target: &lang.Index{Base: "A", Subs: subs},
					Op: []string{"+=", "*="}[rng.Intn(2)], Value: typedFloatExpr(rng, 1)}
			}
			var val lang.Expr = typedVecExpr(rng, 1)
			if rng.Intn(2) == 0 {
				// A same-shape source, so plain stores match lengths.
				src := append([]lang.Expr(nil), subs...)
				for d, sub := range src {
					if sub != r {
						src[d] = typedSub(rng)
					}
				}
				val = &lang.BinOp{Op: "*", L: typedFloatExpr(rng, 0), R: &lang.Index{Base: "A", Subs: src}}
			}
			return &lang.Assign{Target: &lang.Index{Base: "A", Subs: subs},
				Op: []string{"=", "+=", "*="}[rng.Intn(3)], Value: val}
		case 6:
			return &lang.Assign{Target: &lang.Index{Base: "buf", Subs: []lang.Expr{typedSub(rng), typedSub(rng)}},
				Op: []string{"+=", "-="}[rng.Intn(2)], Value: typedFloatExpr(rng, 2)}
		default:
			return &lang.Assign{Target: &lang.Ident{Name: "acc"}, Op: "+=", Value: typedFloatExpr(rng, 2)}
		}
	}
	switch rng.Intn(3) {
	case 0:
		cmp := []string{"<", "<=", ">", ">=", "==", "!="}
		st := &lang.If{Cond: &lang.BinOp{Op: cmp[rng.Intn(len(cmp))],
			L: typedFloatExpr(rng, 1), R: typedFloatExpr(rng, 1)},
			Then: []lang.Stmt{typedStmt(rng, depth-1)}}
		if rng.Intn(2) == 0 {
			st.Else = []lang.Stmt{typedStmt(rng, depth-1)}
		}
		return st
	case 1:
		return &lang.ForRange{Var: "k", Lo: &lang.Num{Val: 1}, Hi: &lang.Num{Val: float64(1 + rng.Intn(3))},
			Body: []lang.Stmt{typedStmt(rng, depth-1)}}
	default:
		return &lang.ExprStmt{X: typedFloatExpr(rng, 2)}
	}
}

// TestDifferentialRandomPrograms: randomly generated (mostly
// well-typed) loops must behave identically under both backends,
// over whole arrays and again over partition windows — which holds the
// VM's window arithmetic (point mirrors, row views, bulk range paths)
// and its out-of-window fallback to the interpreter.
func TestDifferentialRandomPrograms(t *testing.T) {
	env := &lang.Env{
		Arrays: map[string][]int64{
			"data": {5, 4},
			"A":    {4, 4},
			"B":    {3, 4},
		},
		Buffers: map[string]string{"buf": "A"},
	}
	rng := rand.New(rand.NewSource(2027))
	compiledCount := 0
	for trial := 0; trial < 300; trial++ {
		loop := &lang.Loop{KeyVar: "key", ValVar: "v", IterVar: "data"}
		loop.Body = []lang.Stmt{
			&lang.Assign{Target: &lang.Ident{Name: "x"}, Op: "=", Value: &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: 2}}}},
			&lang.Assign{Target: &lang.Ident{Name: "y"}, Op: "=", Value: &lang.Ident{Name: "v"}},
			&lang.Assign{Target: &lang.Ident{Name: "p"}, Op: "=", Value: &lang.Call{Fn: "zeros", Args: []lang.Expr{&lang.Num{Val: 4}}}},
		}
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			loop.Body = append(loop.Body, typedStmt(rng, 2))
		}
		src := loop.String()
		parsed, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated loop does not parse: %v\n%s", trial, err, src)
		}
		prog := &lang.Program{Env: env, Globals: []string{"g"}, Loop: parsed}
		cfg := diffConfig{scheme: fillInts, seed: int64(trial), maxIters: 20, block: trial%2 == 0}
		label := fmt.Sprintf("trial %d:\n%s", trial, src)
		if diffProgram(t, label, prog, cfg) {
			compiledCount++
			for w := int64(1); w <= 4; w++ {
				cfg.window = int64(trial)*4 + w
				diffProgram(t, fmt.Sprintf("%s(window seed %d)", label, cfg.window), prog, cfg)
			}
		}
	}
	if compiledCount < 200 {
		t.Fatalf("only %d/300 random programs were compilable — generator or compiler subset too narrow", compiledCount)
	}
}

// untypedExpr and untypedStmt generate random well-formed but mostly
// ill-typed ASTs over undeclared names, vector-valued subscripts, and
// comparisons used as values: the shapes the front end must reject, or
// lower exactly as the interpreter defines them.
func untypedExpr(rng *rand.Rand, depth int) lang.Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &lang.Num{Val: float64(rng.Intn(100))}
		case 1:
			return &lang.Ident{Name: untypedName(rng)}
		default:
			return &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: float64(1 + rng.Intn(2))}}}
		}
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"+", "-", "*", "/", "^", "<", ">", "=="}
		return &lang.BinOp{Op: ops[rng.Intn(len(ops))],
			L: untypedExpr(rng, depth-1), R: untypedExpr(rng, depth-1)}
	case 1:
		return &lang.UnOp{Op: "-", X: untypedExpr(rng, depth-1)}
	case 2:
		return &lang.Call{Fn: "abs", Args: []lang.Expr{untypedExpr(rng, depth-1)}}
	case 3:
		return &lang.Index{Base: "A", Subs: []lang.Expr{untypedExpr(rng, depth-1), &lang.RangeExpr{Full: true}}}
	default:
		return untypedExpr(rng, 0)
	}
}

func untypedName(rng *rand.Rand) string {
	names := []string{"x", "y", "foo", "w_1", "alpha"}
	return names[rng.Intn(len(names))]
}

func untypedStmt(rng *rand.Rand, depth int) lang.Stmt {
	if depth <= 0 || rng.Intn(3) == 0 {
		ops := []string{"=", "+=", "-=", "*=", "/="}
		return &lang.Assign{
			Target: &lang.Ident{Name: untypedName(rng)},
			Op:     ops[rng.Intn(len(ops))],
			Value:  untypedExpr(rng, 2),
		}
	}
	switch rng.Intn(3) {
	case 0:
		st := &lang.If{Cond: &lang.BinOp{Op: "<", L: untypedExpr(rng, 1), R: untypedExpr(rng, 1)},
			Then: []lang.Stmt{untypedStmt(rng, depth-1)}}
		if rng.Intn(2) == 0 {
			st.Else = []lang.Stmt{untypedStmt(rng, depth-1)}
		}
		return st
	case 1:
		return &lang.ForRange{Var: "k", Lo: &lang.Num{Val: 1}, Hi: &lang.Num{Val: float64(2 + rng.Intn(5))},
			Body: []lang.Stmt{untypedStmt(rng, depth-1)}}
	default:
		return &lang.Assign{
			Target: &lang.Index{Base: "A", Subs: []lang.Expr{untypedExpr(rng, 1), untypedExpr(rng, 1)}},
			Op:     "=",
			Value:  untypedExpr(rng, 2),
		}
	}
}

// TestDifferentialRandomASTs: whenever one of the untyped generator's
// (frequently ill-typed) loops compiles, the VM must still agree with
// the interpreter, per iteration and batched; when it does not, the
// front end must have rejected it.
func TestDifferentialRandomASTs(t *testing.T) {
	env := &lang.Env{Arrays: map[string][]int64{
		"data": {4, 3},
		"A":    {4, 3},
	}}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		loop := &lang.Loop{KeyVar: "key", ValVar: "v", IterVar: "data"}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			loop.Body = append(loop.Body, untypedStmt(rng, 2))
		}
		prog := &lang.Program{Env: env, Loop: loop}
		cfg := diffConfig{scheme: fillInts, seed: int64(trial), maxIters: 12, block: trial%2 == 0}
		diffProgram(t, fmt.Sprintf("trial %d:\n%s", trial, loop.String()), prog, cfg)
	}
}

// TestStepBudgetParity: both backends exhaust the inner-loop step
// budget at the same iteration with the same error, per iteration and
// batched.
func TestStepBudgetParity(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    acc = 0\n    for k = 1:100\n        acc += k\n    end\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	prog := &lang.Program{Env: &lang.Env{Arrays: map[string][]int64{"data": {3, 3}}}, Loop: loop}
	for _, block := range []bool{false, true} {
		cfg := diffConfig{scheme: fillInts, seed: 5, budget: 150, vecLimit: 64, block: block}
		if !diffProgram(t, fmt.Sprintf("step budget, block=%v", block), prog, cfg) {
			t.Fatal("budget program should be compilable")
		}
	}
}

// TestDifferentialWindows: one program per dense path — rank-1, rank-2
// and rank-3 point access, row view, materialized range read, strided
// and contiguous range stores, vector and scalar range updates — run
// over many partition windows, so every path's window arithmetic and
// its out-of-window fallback meet the interpreter on each window shape.
// Each body touches one array, so no other array's window faults first.
func TestDifferentialWindows(t *testing.T) {
	env := &lang.Env{Arrays: map[string][]int64{
		"data": {4, 4}, "A": {4, 4}, "r": {4}, "T": {4, 4, 3},
	}}
	bodies := []string{
		"    r[key[1]] += v\n    x = r[key[2]]\n    r[key[2]] = x * 2\n",
		"    T[key[1], key[2], 2] += v\n    x = T[key[2], key[1], 2]\n    T[key[1], key[1], 3] = x\n",
		"    s = dot(A[:, key[2]], A[:, key[1]])\n    A[key[1], key[2]] += s * 0.01\n",
		"    p = A[2:3, key[2]]\n    q = A[key[1], 2:4]\n    x = p[1] + q[2] + A[key[1], key[2]]\n    A[key[2], key[1]] = x\n",
		"    A[key[1], 2:4] = 0.5 * A[key[2], 2:4]\n",
		"    A[2:4, key[2]] = v * A[1:3, key[1]]\n",
		"    A[key[1], 2:3] += A[key[2], 1:2]\n    A[2:4, key[2]] *= 1.5\n",
	}
	for bi, body := range bodies {
		src := "for (key, v) in data\n" + body + "end\n"
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("body %d: %v\n%s", bi, err, src)
		}
		prog := &lang.Program{Env: env, Loop: loop}
		for w := int64(1); w <= 100; w++ {
			// Interior walks start at coordinate 1, inside the windows
			// that cut only the low end, so those runs get past the
			// first access.
			for _, interior := range []bool{false, true} {
				cfg := diffConfig{scheme: fillFloats, seed: int64(bi), window: w, block: w%2 == 0, interior: interior}
				if !diffProgram(t, fmt.Sprintf("window seed %d, interior=%v:\n%s", w, interior, src), prog, cfg) {
					t.Fatalf("body %d is outside the compiled subset:\n%s", bi, src)
				}
			}
		}
	}
}

// TestVMNotCompilable: constructs outside the compiled subset must be
// rejected with *lang.NotCompilableError (so callers fall back to the
// interpreter), never miscompiled.
func TestVMNotCompilable(t *testing.T) {
	env := &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {4, 4}, "A": {4, 4}},
		Globals: []string{"g"},
	}
	cases := []struct{ name, src string }{
		{"key as value", "for (key, v) in data\n    x = key\nend\n"},
		{"vector aliasing", "for (key, v) in data\n    p = A[:, 1]\n    q = p\nend\n"},
		{"whole-array ref", "for (key, v) in data\n    x = A\nend\n"},
		{"vector comparison", "for (key, v) in data\n    p = A[:, 1] < 2\nend\n"},
		{"type conflict", "for (key, v) in data\n    x = 1\n    x = A[:, 1]\nend\n"},
		{"if non-bool", "for (key, v) in data\n    if v\n        x = 1\n    end\nend\n"},
		{"unknown function", "for (key, v) in data\n    x = frob(v)\nend\n"},
		{"arity mismatch", "for (key, v) in data\n    x = A[1]\nend\n"},
		{"two ranges", "for (key, v) in data\n    p = A[:, :]\nend\n"},
		{"local shadows array", "for (key, v) in data\n    A = 1\nend\n"},
		{"global vec assign", "for (key, v) in data\n    g = A[:, 1]\nend\n"},
	}
	for _, tc := range cases {
		loop, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		_, err = Compile(loop, env)
		if err == nil {
			t.Fatalf("%s: expected NotCompilableError, compiled fine", tc.name)
		}
		if _, ok := err.(*lang.NotCompilableError); !ok {
			t.Fatalf("%s: error %T is not *lang.NotCompilableError: %v", tc.name, err, err)
		}
	}
}

// TestVMRuntimeErrors: runtime faults must carry the exact interpreter
// messages (the differential fuzzer depends on it).
func TestVMRuntimeErrors(t *testing.T) {
	env := &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {4, 4}, "A": {4, 4}, "B": {3, 4}},
		Globals: []string{"g"},
	}
	cases := []struct{ name, src, want string }{
		{"undefined read", "for (key, v) in data\n    if v < 0\n        x = 1\n    end\n    y = x\nend\n",
			`lang: undefined variable "x"`},
		{"compound undefined", "for (key, v) in data\n    if v < 0\n        x = 1\n    end\n    x += 1\nend\n",
			`lang: += of undefined variable "x"`},
		{"key oob", "for (key, v) in data\n    x = key[3]\nend\n",
			"lang: key subscript 3 out of range"},
		{"dot mismatch", "for (key, v) in data\n    x = dot(A[:, 1], B[:, 1])\nend\n",
			"lang: dot needs two equal-length vectors"},
		{"vec length mismatch", "for (key, v) in data\n    p = A[:, 1] + B[:, 1]\nend\n",
			"lang: vector length mismatch 4 vs 3"},
		{"axpy length mismatch", "for (key, v) in data\n    p = A[:, 1] + v * B[:, 1]\nend\n",
			"lang: vector length mismatch 4 vs 3"},
		{"range write mismatch", "for (key, v) in data\n    A[:, 1] = B[:, 1]\nend\n",
			"lang: A: vector length 3 does not match range 1:4"},
		{"rand without rng", "for (key, v) in data\n    x = rand()\nend\n",
			"lang: rand() requires a Machine with an Rng"},
		{"vec subscript oob", "for (key, v) in data\n    p = zeros(2)\n    x = p[5]\nend\n",
			"lang: vector subscript 5 out of range"},
		{"undefined global", "for (key, v) in data\n    x = g\nend\n",
			`lang: undefined variable "g"`},
	}
	for _, tc := range cases {
		loop, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		p, err := Compile(loop, env)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		k := p.NewKernel()
		for name, dims := range env.Arrays {
			if err := k.BindArray(name, dsm.NewDense(name, dims...)); err != nil {
				t.Fatal(err)
			}
		}
		err = k.RunIteration([]int64{0, 0}, 1)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: got error %v, want %q", tc.name, err, tc.want)
		}
	}
}
