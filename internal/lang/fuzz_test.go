package lang

import (
	"strings"
	"testing"
)

// fuzzSeeds are real example programs: the corpus the fuzzer mutates.
var fuzzSeeds = []string{
	mfSrc,
	`for (key, v) in samples
    idx = floor(v * 100) + 1
    w = weights[idx]
    g = sigmoid(w * v) - 1
    w_buf[idx] += 0 - step_size * g
end
`,
	`for (key, v) in grid
    cur = A[key[1], key[2]]
    west = A[key[1], key[2] - 1]
    ne = A[key[1] - 1, key[2] + 1]
    A[key[1], key[2]] = 0.4 * cur + 0.35 * west + 0.25 * ne
end
`,
	`for (key, occ) in tokens
    p = zeros(K)
    total = 0
    for k = 1:K
        p[k] = (occ + alpha) / (total + 1)
        total = total + p[k]
    end
    if total > 1
        z[key[1], key[2]] = 1
    else
        z[key[1], key[2]] = 2
    end
end
`,
	`for (key, v) in xs
    err += v * v
end
`,
	"for (key, v) in data\nend\n",
	"for (key, v) in data\n    x = = 3\nend\n",
	"for key in data\nend\n",
	"",
}

// FuzzParse feeds arbitrary byte strings through the DSL front end. The
// invariants: the parser never panics, and any program it accepts
// round-trips — String() re-parses to an identical rendering (the
// property the DefineLoop wire protocol relies on).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		loop, err := Parse(src)
		if err != nil {
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("Parse error %T is not *SyntaxError: %v", err, err)
			}
			return
		}
		printed := loop.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse: %v\noriginal: %q\nprinted: %q", err, src, printed)
		}
		if again := back.String(); again != printed {
			t.Fatalf("print/parse round-trip not stable:\nfirst:  %q\nsecond: %q", printed, again)
		}
	})
}

// FuzzParseProgram exercises the whole program-file front end
// (preamble + loop) the same way.
func FuzzParseProgram(f *testing.F) {
	f.Add("array data 10 10\n---\nfor (key, v) in data\n    x = v\nend\n")
	f.Add("array samples 100\narray hist 10\nbuffer h hist\nordered true\n---\nfor (key, v) in samples\n    h[1] += v\nend\n")
	f.Add("garbage\n---\nfor (key, v) in data\nend\n")
	f.Add("---")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			switch err.(type) {
			case *SyntaxError, *PreambleError:
			default:
				t.Fatalf("ParseProgram error %T is not a typed front-end error: %v", err, err)
			}
			return
		}
		// An accepted program's loop positions must sit at or past the
		// separator line.
		if prog.Loop.At.Line > 0 && prog.Loop.At.Line < prog.LoopLine {
			t.Fatalf("loop position %d precedes the separator line %d", prog.Loop.At.Line, prog.LoopLine)
		}
		if !strings.Contains(src, "---") {
			t.Fatal("accepted a program with no separator")
		}
	})
}

// The execution differential fuzzer lives in internal/lang/vm
// (FuzzExecDifferential there), where it holds the bytecode VM to
// bitwise-identical results with the interpreter.
