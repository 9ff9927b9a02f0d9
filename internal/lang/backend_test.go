package lang_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
)

// These tests hold the compiled backend — the bytecode VM, which lowers
// loops through this package's resolution front end — to the
// interpreter, through the public API its callers use: ParseProgram,
// CompileEnv, NotCompilableError and per-iteration kernels. The vm
// package's own differential also covers its batched driver, partition
// windows and step budgets.

type diffCfg struct {
	ints, interior bool // fill with small integers; walk interior keys only
	seed           int64
	maxIters       int
}

// outcome is one backend's observable result.
type outcome struct {
	arrays  map[string]*dsm.DistArray
	globals map[string]float64
	stop    int // iterations fully executed
	fault   string
}

// execute runs prog's loop over deterministically filled dense arrays
// on the interpreter (p == nil) or on a fresh VM kernel of p.
func execute(t *testing.T, prog *lang.Program, globals map[string]float64, p *vm.Prog, cfg diffCfg) outcome {
	t.Helper()
	names := make([]string, 0, len(prog.Env.Arrays))
	for n := range prog.Env.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(cfg.seed))
	arrays := map[string]*dsm.DistArray{}
	for _, n := range names {
		a := dsm.NewDense(n, prog.Env.Arrays[n]...)
		a.Map(func(float64) float64 {
			if cfg.ints {
				return float64(1 + rng.Intn(6))
			}
			return rng.Float64()
		})
		arrays[n] = a
	}
	bufs := map[string]*dsm.Buffer{}
	for n, target := range prog.Env.Buffers {
		bufs[n] = dsm.NewBuffer(arrays[target], nil)
	}
	var step func(key []int64, val float64) error
	var global func(n string) float64
	if p == nil {
		m := lang.NewMachine()
		for n, a := range arrays {
			m.Arrays[n] = a
		}
		for n, b := range bufs {
			m.Buffers[n] = b
		}
		for n, v := range globals {
			m.Globals[n] = v
		}
		m.Rng = rand.New(rand.NewSource(cfg.seed + 1))
		step = func(key []int64, val float64) error { return m.RunIteration(prog.Loop, key, val) }
		global = func(n string) float64 { return m.Globals[n].(float64) }
	} else {
		k := p.NewKernel()
		for n, a := range arrays {
			if err := k.BindArray(n, a); err != nil {
				t.Fatalf("BindArray(%s): %v", n, err)
			}
		}
		for n, b := range bufs {
			if err := k.BindBuffer(n, b); err != nil {
				t.Fatalf("BindBuffer(%s): %v", n, err)
			}
		}
		for n, v := range globals {
			if !k.SetGlobal(n, v) {
				t.Fatalf("SetGlobal(%s) not accepted", n)
			}
		}
		k.SetRng(rand.New(rand.NewSource(cfg.seed + 1)))
		step = k.RunIteration
		global = func(n string) float64 { v, _ := k.Global(n); return v }
	}
	iter := arrays[prog.Loop.IterVar]
	dims := iter.Dims()
	var keys [][]int64
	var vals []float64
	iter.ForEach(func(idx []int64, v float64) {
		for d, c := range idx {
			if cfg.interior && (c < 1 || c > dims[d]-2) {
				return
			}
		}
		keys, vals = append(keys, idx), append(vals, v)
	})
	if cfg.maxIters > 0 && len(keys) > cfg.maxIters {
		keys, vals = keys[:cfg.maxIters], vals[:cfg.maxIters]
	}
	out := outcome{arrays: arrays, globals: map[string]float64{}}
	for out.stop < len(keys) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					out.fault = fmt.Sprint("panic: ", r)
				}
			}()
			if err := step(keys[out.stop], vals[out.stop]); err != nil {
				out.fault = err.Error()
			}
		}()
		if out.fault != "" {
			break
		}
		out.stop++
	}
	for n, b := range bufs {
		b.Flush(arrays[prog.Env.Buffers[n]])
	}
	for n := range globals {
		out.globals[n] = global(n)
	}
	return out
}

// sameBits compares bitwise, with NaN payloads collapsed: Go leaves NaN
// propagation unspecified, so independently compiled code may
// legitimately disagree on a NaN's sign and payload bits.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// diffProgram runs prog on the interpreter and the VM and requires
// identical outcomes. It returns false when the loop is outside the
// compiled subset, which the VM must report as *lang.NotCompilableError.
func diffProgram(t *testing.T, label string, prog *lang.Program, cfg diffCfg) bool {
	t.Helper()
	known := map[string]float64{"step_size": 0.05, "K": 6, "alpha": 0.1, "beta": 0.01, "vbeta": 0.8}
	names := append([]string(nil), prog.Globals...)
	if spec, err := lang.Analyze(prog.Loop, prog.Env); err == nil {
		names = append(names, spec.Inherited...)
	}
	globals := map[string]float64{}
	for i, n := range names {
		if v, ok := known[n]; ok {
			globals[n] = v
		} else {
			globals[n] = 0.3 + 0.11*float64(i)
		}
	}
	for _, n := range lang.Accumulators(prog.Loop) {
		globals[n] = 0
	}
	gnames := make([]string, 0, len(globals))
	for n := range globals {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	p, err := vm.Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers, Globals: gnames})
	if err != nil {
		if _, ok := err.(*lang.NotCompilableError); !ok {
			t.Fatalf("%s: vm.Compile failed with %T: %v", label, err, err)
		}
		return false
	}
	ref, got := execute(t, prog, globals, nil, cfg), execute(t, prog, globals, p, cfg)
	if ref.stop != got.stop || ref.fault != got.fault {
		t.Fatalf("%s: interp stopped after %d iterations with %q, vm after %d with %q",
			label, ref.stop, ref.fault, got.stop, got.fault)
	}
	for n, a := range ref.arrays {
		bad := ""
		a.ForEach(func(idx []int64, v float64) {
			if w := got.arrays[n].At(idx...); bad == "" && !sameBits(v, w) {
				bad = fmt.Sprintf("array %s%v: interp %v, vm %v", n, idx, v, w)
			}
		})
		if bad != "" {
			t.Fatalf("%s: %s", label, bad)
		}
	}
	for n, v := range ref.globals {
		if w := got.globals[n]; !sameBits(v, w) {
			t.Fatalf("%s: global %s: interp %v, vm %v", label, n, v, w)
		}
	}
	return true
}

func exampleProgram(t testing.TB, file string) *lang.Program {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseProgram(string(src))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return prog
}

// TestDifferentialExamples: every shipped example must compile and
// produce bitwise-identical results under both backends, across two
// fill schemes and both full and interior walks.
func TestDifferentialExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.orion"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found (err=%v)", err)
	}
	for _, f := range files {
		prog := exampleProgram(t, f)
		for _, ints := range []bool{false, true} {
			for _, interior := range []bool{false, true} {
				label := fmt.Sprintf("%s/ints=%v/interior=%v", filepath.Base(f), ints, interior)
				if !diffProgram(t, label, prog, diffCfg{ints: ints, interior: interior, seed: 42}) {
					t.Fatalf("%s: example is outside the compiled subset", label)
				}
			}
		}
	}
}

// randomLoopSource generates the source text of a random, mostly
// well-typed loop over data 5x4, A 4x4, B 3x4 (partial ranges of A are
// B-column length), buffer buf on A and global g. Faults still occur
// through out-of-range or fractional subscripts once x is reassigned.
func randomLoopSource(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	sub := func() string { return pick("key[2]", "x", "1", "2", "3", "4") }
	var scalar, vector func(depth int) string
	scalar = func(depth int) string {
		if depth <= 0 {
			return pick("x", "y", "g", "v", "key[1]", "2", "0.5", "rand()",
				"A["+sub()+", "+sub()+"]", "p["+sub()+"]", "dot(A[2:4, "+sub()+"], B[:, "+sub()+"])")
		}
		switch rng.Intn(5) {
		case 0:
			return "(" + scalar(depth-1) + pick(" + ", " - ", " * ", " / ") + scalar(depth-1) + ")"
		case 1:
			return "-" + scalar(depth-1)
		case 2:
			return pick("abs", "abs2", "sqrt", "exp", "sigmoid", "floor", "ceil") + "(" + scalar(depth-1) + ")"
		case 3:
			return pick("min", "max") + "(" + scalar(depth-1) + ", " + scalar(depth-1) + ")"
		default:
			return "dot(" + vector(depth-1) + ", " + vector(depth-1) + ")"
		}
	}
	vector = func(depth int) string {
		if depth <= 0 {
			return pick("A[:, "+sub()+"]", "A["+sub()+", :]", "zeros(4)", "p")
		}
		switch rng.Intn(3) {
		case 0:
			return "(" + vector(depth-1) + pick(" + ", " - ", " * ") + vector(depth-1) + ")"
		case 1:
			return "(" + vector(depth-1) + pick(" + ", " - ") + scalar(depth-1) + " * " + vector(depth-1) + ")"
		default:
			return scalar(depth-1) + " * " + vector(depth-1)
		}
	}
	op := func() string { return pick("=", "+=", "-=", "*=", "/=") }
	var stmt func(depth int) string
	stmt = func(depth int) string {
		if depth > 0 && rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return "if " + scalar(1) + pick(" < ", " >= ", " == ", " != ") + scalar(1) + "\n" +
					stmt(depth-1) + "\nelse\n" + stmt(depth-1) + "\nend"
			}
			return fmt.Sprintf("for k = 1:%d\n%s\nend", 1+rng.Intn(3), stmt(depth-1))
		}
		switch rng.Intn(8) {
		case 0:
			return pick("x", "y") + " " + op() + " " + scalar(2)
		case 1:
			return "p " + pick("+=", "-=", "*=") + " " + vector(2)
		case 2:
			return "p[" + sub() + "] " + op() + " " + scalar(2)
		case 3:
			return "A[" + sub() + ", " + sub() + "] " + op() + " " + scalar(2)
		case 4:
			return "A[:, " + sub() + "] " + pick("=", "+=", "*=") + " " + vector(1)
		case 5:
			return "A[1:3, " + sub() + "] " + pick("=", "+=") + " " + scalar(0) + " * B[:, " + sub() + "]"
		case 6:
			return "buf[" + sub() + ", " + sub() + "] += " + scalar(2)
		default:
			return "acc += " + scalar(2)
		}
	}
	var b strings.Builder
	b.WriteString("for (key, v) in data\nx = key[2]\ny = v\np = zeros(4)\n")
	for n := 1 + rng.Intn(5); n > 0; n-- {
		b.WriteString(stmt(2) + "\n")
	}
	b.WriteString("end\n")
	return b.String()
}

// TestDifferentialRandomPrograms: randomly generated (mostly
// well-typed) loops, parsed from source text as the wire protocol ships
// them, must behave identically under both backends.
func TestDifferentialRandomPrograms(t *testing.T) {
	env := &lang.Env{
		Arrays:  map[string][]int64{"data": {5, 4}, "A": {4, 4}, "B": {3, 4}},
		Buffers: map[string]string{"buf": "A"},
	}
	rng := rand.New(rand.NewSource(2026))
	compiled := 0
	for trial := 0; trial < 300; trial++ {
		src := randomLoopSource(rng)
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated loop does not parse: %v\n%s", trial, err, src)
		}
		prog := &lang.Program{Env: env, Globals: []string{"g"}, Loop: loop}
		if diffProgram(t, fmt.Sprintf("trial %d:\n%s", trial, src), prog, diffCfg{ints: true, seed: int64(trial), maxIters: 20}) {
			compiled++
		}
	}
	if compiled < 200 {
		t.Fatalf("only %d/300 random programs were compilable — generator or compiled subset too narrow", compiled)
	}
}

// mfKernel compiles the shipped MF example and binds it to seeded
// factor matrices; the interpreter Machine it returns runs the same loop
// on clones of them.
func mfKernel(t testing.TB) (*vm.Kernel, *lang.Machine, *lang.Loop, [2]*dsm.DistArray, [2]*dsm.DistArray) {
	t.Helper()
	prog := exampleProgram(t, filepath.Join("..", "..", "examples", "quickstart", "mf.orion"))
	p, err := vm.Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Globals: []string{"step_size", "err"}})
	if err != nil {
		t.Fatal(err)
	}
	k, m := p.NewKernel(), lang.NewMachine()
	var vmWH, inWH [2]*dsm.DistArray
	for i, name := range []string{"W", "H"} {
		vmWH[i] = dsm.NewDense(name, prog.Env.Arrays[name]...)
		vmWH[i].FillRandn(rand.New(rand.NewSource(int64(i+1))), 0.1)
		inWH[i] = vmWH[i].Clone()
		m.Arrays[name] = inWH[i]
		if err := k.BindArray(name, vmWH[i]); err != nil {
			t.Fatal(err)
		}
	}
	ratings := prog.Env.Arrays["ratings"]
	m.Arrays["ratings"] = dsm.NewSparse("ratings", ratings...)
	if err := k.BindArray("ratings", dsm.NewSparse("ratings", ratings...)); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"step_size": 0.01, "err": 0} {
		m.Globals[name] = v
		if !k.SetGlobal(name, v) {
			t.Fatalf("%s not a global", name)
		}
	}
	return k, m, prog.Loop, vmWH, inWH
}

// TestCompiledMFMatchesInterp: spot-check the MF body end to end.
func TestCompiledMFMatchesInterp(t *testing.T) {
	k, m, loop, vmWH, inWH := mfKernel(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		key := []int64{int64(rng.Intn(80)), int64(rng.Intn(60))}
		val := rng.Float64() * 5
		if err := k.RunIteration(key, val); err != nil {
			t.Fatalf("vm iteration %d: %v", i, err)
		}
		if err := m.RunIteration(loop, key, val); err != nil {
			t.Fatalf("interp iteration %d: %v", i, err)
		}
	}
	for i := range vmWH {
		vmWH[i].ForEach(func(idx []int64, v float64) {
			if w := inWH[i].At(idx...); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s%v diverged: vm %v, interp %v", vmWH[i].Name(), idx, v, w)
			}
		})
	}
	if got, _ := k.Global("err"); math.Float64bits(got) != math.Float64bits(m.Globals["err"].(float64)) {
		t.Fatalf("accumulator err diverged: vm %v, interp %v", got, m.Globals["err"])
	}
}

// TestCompiledZeroAllocs: a steady-state compiled MF SGD iteration
// performs zero allocations.
func TestCompiledZeroAllocs(t *testing.T) {
	k, _, _, _, _ := mfKernel(t)
	key := []int64{3, 7}
	for i := 0; i < 4; i++ {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled MF iteration allocates %v times, want 0", allocs)
	}
}

// TestCompiledSpeedup: the compiled backend's batched driver — the one
// executors run — must beat the interpreter by a wide margin on the MF
// body, with the same 12x floor the vm package sets per iteration.
func TestCompiledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	k, m, loop, _, _ := mfKernel(t)
	rng := rand.New(rand.NewSource(5))
	keys := make([][]int64, 64)
	vals := make([]float64, len(keys))
	for i := range keys {
		keys[i] = []int64{int64(rng.Intn(80)), int64(rng.Intn(60))}
		vals[i] = rng.Float64() * 5
	}
	compiled := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := k.RunBlock(keys, vals, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	interp := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, key := range keys {
				if err := m.RunIteration(loop, key, vals[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	cn, in := compiled.NsPerOp(), interp.NsPerOp()
	if cn <= 0 || in <= 0 {
		t.Skipf("timer resolution too coarse: compiled %d ns, interp %d ns", cn, in)
	}
	if float64(in) < 12*float64(cn) {
		t.Fatalf("compiled backend is not >=12x faster: interp %d ns/block, compiled %d ns/block", in, cn)
	}
	t.Logf("interp %d ns/block, compiled %d ns/block (%.1fx)", in, cn, float64(in)/float64(cn))
}

// TestCompiledRuntimeErrors: runtime faults must carry the exact
// interpreter messages — each case runs on both backends and both must
// report the wanted error.
func TestCompiledRuntimeErrors(t *testing.T) {
	arrays := map[string][]int64{"data": {4, 4}, "A": {4, 4}, "B": {3, 4}}
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
		p, err := vm.Compile(loop, &lang.CompileEnv{Arrays: arrays, Globals: []string{"g"}})
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		k, m := p.NewKernel(), lang.NewMachine()
		for name, dims := range arrays {
			m.Arrays[name] = dsm.NewDense(name, dims...)
			if err := k.BindArray(name, dsm.NewDense(name, dims...)); err != nil {
				t.Fatal(err)
			}
		}
		key := []int64{0, 0}
		for backend, err := range map[string]error{"vm": k.RunIteration(key, 1), "interp": m.RunIteration(loop, key, 1)} {
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s: %s got error %v, want %q", tc.name, backend, err, tc.want)
			}
		}
	}
}
