package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/metrics"
)

// The bytecode-VM experiment: per-iteration cost of the two loop
// backends — the tree-walking interpreter (the reference semantics)
// and the register bytecode VM (both single-iteration dispatch and the
// batched RunBlock driver) — on the MF/LDA/SLR kernels, plus the VM's
// steady-state allocation count. The committed BENCH_vm.json baseline
// gates the VM's speedup over the interpreter in
// TestVMBaselineThresholds.

type vmKernelRow struct {
	Kernel           string  `json:"kernel"`
	InterpNsPerIter  float64 `json:"interp_ns_per_iter"`
	VMNsPerIter      float64 `json:"vm_ns_per_iter"`
	VMBlockNsPerIter float64 `json:"vm_block_ns_per_iter"`
	VMAllocsPerIter  int64   `json:"vm_allocs_per_iter"`
	SpeedupVsInterp  float64 `json:"speedup_vs_interp"`
}

type vmBaseline struct {
	Description string        `json:"description"`
	Kernels     []vmKernelRow `json:"kernels"`
}

// vmBlockKeys expands the fixture's single (key, val) into a block of
// in-bounds iterations for the batched driver. Runtime keys are
// 0-based array coordinates (the DSL's key[i] yields the 1-based
// coordinate).
func vmBlockKeys(ok obsKernel, n int) (keys [][]int64, vals []float64) {
	iterDims := ok.arrays[firstIterArray(ok)]
	keys = make([][]int64, n)
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		k := make([]int64, len(ok.key))
		for d := range k {
			k[d] = int64(i % int(iterDims[d]))
		}
		keys[i] = k
		// Keep values inside every kernel's valid domain (SLR needs
		// val*100 to index a 128-wide weights array).
		vals[i] = 0.01 + float64(i%90)*0.01
	}
	return keys, vals
}

// firstIterArray names the iteration-space array of a fixture (the
// array the loop ranges over).
func firstIterArray(ok obsKernel) string {
	switch ok.name {
	case "MF":
		return "ratings"
	case "LDA":
		return "tokens"
	default:
		return "samples"
	}
}

// measureVM benchmarks both backends per fixture kernel.
func measureVM() (*vmBaseline, error) {
	out := &vmBaseline{
		Description: "loop backend cost per iteration: tree-walking interpreter vs register bytecode VM (single-iteration and batched RunBlock dispatch), same MF/LDA/SLR fixtures as BENCH_obs.json; speedup_vs_interp = interp_ns / vm_block_ns",
	}
	for _, ok := range obsKernels() {
		loop, err := lang.Parse(ok.src)
		if err != nil {
			return nil, err
		}

		// Interpreter.
		m := lang.NewMachine()
		arrays := ok.fixtureArrays()
		for n, a := range arrays {
			m.Arrays[n] = a
		}
		for n, target := range ok.buffers {
			m.Buffers[n] = dsm.NewBuffer(arrays[target], nil)
		}
		for n, v := range ok.globals {
			m.Globals[n] = v
		}
		m.Rng = rand.New(rand.NewSource(99))

		// Bytecode VM (fresh arrays so state drift is comparable),
		// single-iteration and batched dispatch.
		vk, err := ok.newKernel()
		if err != nil {
			return nil, err
		}
		const blockLen = 256
		keys, vals := vmBlockKeys(ok, blockLen)
		ns, allocs := benchEach(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := m.RunIteration(loop, ok.key, ok.val); err != nil {
					b.Fatal(err)
				}
			}
		}, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := vk.RunIteration(ok.key, ok.val); err != nil {
					b.Fatal(err)
				}
			}
		}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vk.RunBlock(keys, vals, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		interpNs, vmNs, vmAllocs := ns[0], ns[1], allocs[1]
		blockPerIter := ns[2] / blockLen

		out.Kernels = append(out.Kernels, vmKernelRow{
			Kernel:           ok.name,
			InterpNsPerIter:  round1(interpNs),
			VMNsPerIter:      round1(vmNs),
			VMBlockNsPerIter: round1(blockPerIter),
			VMAllocsPerIter:  vmAllocs,
			SpeedupVsInterp:  math.Round(interpNs/blockPerIter*100) / 100,
		})
	}
	return out, nil
}

// VMBackends is the "vm" experiment: backend cost tables (the JSON
// baseline is written by orion-bench -vm-json).
func VMBackends(_ Scale) (*Report, error) {
	d, err := measureVM()
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, k := range d.Kernels {
		rows = append(rows, []string{
			k.Kernel,
			fmt.Sprintf("%.1f", k.InterpNsPerIter),
			fmt.Sprintf("%.1f", k.VMNsPerIter),
			fmt.Sprintf("%.1f", k.VMBlockNsPerIter),
			fmt.Sprintf("%d", k.VMAllocsPerIter),
			fmt.Sprintf("%.2fx", k.SpeedupVsInterp),
		})
	}
	body := "loop backend cost (per iteration):\n" +
		metrics.Table([]string{"kernel", "interp ns", "vm ns", "vm block ns", "vm allocs", "vm speedup"}, rows)
	return &Report{ID: "vm", Title: "bytecode VM vs interpreter", Body: body}, nil
}

// WriteVMBaseline measures the backends and writes the BENCH_vm.json
// baseline.
func WriteVMBaseline(path string) error {
	d, err := measureVM()
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
