package lang

import (
	"testing"

	"orion/internal/dsm"
)

const benchSrc = `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    pred = dot(W_row, H_row)
    diff = rv - pred
    W_grad = -2 * diff * H_row
    H_grad = -2 * diff * W_row
    W[:, key[1]] = W_row - step_size * W_grad
    H[:, key[2]] = H_row - step_size * H_grad
end
`

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	loop, err := Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{Arrays: map[string][]int64{
		"ratings": {1000, 800}, "W": {32, 1000}, "H": {32, 800},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(loop, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpretIteration measures one interpreted MF SGD step —
// the per-iteration overhead the DSL execution path pays over a native
// Go kernel.
func BenchmarkInterpretIteration(b *testing.B) {
	loop, err := Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine()
	m.Arrays["ratings"] = dsm.NewSparse("ratings", 100, 100)
	w := dsm.NewDense("W", 16, 100)
	h := dsm.NewDense("H", 16, 100)
	m.Arrays["W"] = w
	m.Arrays["H"] = h
	m.Globals["step_size"] = float64(0.01)
	key := []int64{3, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunIteration(loop, key, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefetchSliceSynthesis(b *testing.B) {
	src := `
for (key, v) in samples
    idx = floor(v * 100) + 1
    w = weights[idx]
    g = sigmoid(w) - 1
    w_buf[idx] += 0 - g
end
`
	loop, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{
		Arrays:  map[string][]int64{"samples": {1000}, "weights": {100}},
		Buffers: map[string]string{"w_buf": "weights"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PrefetchSlice(loop, env, "weights"); err != nil {
			b.Fatal(err)
		}
	}
}
