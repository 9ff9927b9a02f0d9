package bench

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"orion/internal/dsm"
	"orion/internal/runtime"
)

// The committed BENCH_vm.json and BENCH_transport.json baselines are
// regression gates, not just records: `make check` runs these tests, so
// regenerating a baseline that no longer clears the floors fails the
// build. The floors restate the targets the subsystems were built to:
// the bytecode VM must hold >= 25x over the reference interpreter on at
// least two of the three reference kernels at zero allocations per
// iteration, and the raw rotation codec must allocate >= 5x less per
// rotated partition than the gob path it replaced and keep >= 0.95x the
// throughput of the raw path without its integrity layer.
//
// The VM floor replaces an earlier ">= 2x over the closure backend",
// which ran 9.2-9.4x (MF) and 12.2-12.6x (LDA) faster than the
// interpreter: 2x closure was about 19x (MF) and 25x (LDA) over the
// interpreter, so 25x on two kernels is at least as strict.

func TestVMBaselineThresholds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_vm.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v (regenerate with `make bench-vm`)", err)
	}
	var d vmBaseline
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Kernels) < 3 {
		t.Fatalf("baseline covers %d kernels, want the MF/LDA/SLR trio", len(d.Kernels))
	}
	fast := 0
	for _, k := range d.Kernels {
		if k.VMAllocsPerIter != 0 {
			t.Errorf("%s: vm_allocs_per_iter = %d, want 0", k.Kernel, k.VMAllocsPerIter)
		}
		if k.SpeedupVsInterp >= 25.0 {
			fast++
		}
	}
	if fast < 2 {
		t.Errorf("only %d kernels at >= 25x over the interpreter, want >= 2 (speedups: %v)",
			fast, kernelSpeedups(d))
	}
}

func kernelSpeedups(d vmBaseline) map[string]float64 {
	m := make(map[string]float64, len(d.Kernels))
	for _, k := range d.Kernels {
		m[k.Kernel] = k.SpeedupVsInterp
	}
	return m
}

// TestTransportBaselineThresholds applies the transport floors to the
// committed BENCH_transport.json and to a live measurement of the same
// three rows, taken round-robin with a fixed small iteration count so
// the run costs well under a second.
func TestTransportBaselineThresholds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_transport.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v (regenerate with `make bench-transport`)", err)
	}
	var d transportBaseline
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	checkTransportFloors(t, "BENCH_transport.json", d.Rows)

	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("40x"); err != nil {
		t.Fatal(err)
	}
	live, err := measureTransport(16, 4096)
	bt.Value.Set(prev)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live: %+v", live.Rows)
	checkTransportFloors(t, "live", live.Rows)
}

// checkTransportFloors: the raw codec must allocate >= 5x less per
// rotated partition than the gob path it replaced, and its integrity
// layer (CRC32C trailer + frame sequencing) must cost under 5% of
// throughput against raw-nocrc, the pre-hardening raw transport. Each
// set of rows comes from one run on one machine, so the ratios hold
// across machines even though the absolute numbers do not.
func checkTransportFloors(t *testing.T, source string, rows []transportRow) {
	t.Helper()
	var gobAllocs, rawAllocs int64 = -1, -1
	var rawMB, noCRCMB float64 = -1, -1
	for _, r := range rows {
		switch r.Path {
		case "gob":
			gobAllocs = r.AllocsPerRotation
		case "raw":
			rawAllocs = r.AllocsPerRotation
			rawMB = r.MBPerSec
		case "raw-nocrc":
			noCRCMB = r.MBPerSec
		}
	}
	if gobAllocs < 0 || rawAllocs < 0 || noCRCMB < 0 {
		t.Fatalf("%s: missing a path (regenerate with `make bench-transport`): rows = %+v", source, rows)
	}
	if rawAllocs*5 > gobAllocs {
		t.Errorf("%s: raw codec allocates %d per rotation vs gob's %d — want >= 5x fewer", source, rawAllocs, gobAllocs)
	}
	if rawMB < 0.95*noCRCMB {
		t.Errorf("%s: raw path with integrity layer runs at %.1f MB/s vs %.1f MB/s without — over the 5%% checksum budget", source, rawMB, noCRCMB)
	}
}

// TestObsBaselineThresholds gates the committed BENCH_obs.json: the
// observability layer's budget is < 3% VM-kernel regression with
// tracing off, and every hot-path primitive (spans, counters,
// histograms, flight-log appends) must stay allocation-free.
func TestObsBaselineThresholds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_obs.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v (regenerate with `make bench-obs`)", err)
	}
	var d obsBaseline
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Kernels) < 3 {
		t.Fatalf("baseline covers %d kernels, want the MF/LDA/SLR trio", len(d.Kernels))
	}
	for _, k := range d.Kernels {
		if k.RegressionPct >= 3.0 {
			t.Errorf("%s: %.1f%% regression vs BENCH_vm.json, budget is < 3%%", k.Kernel, k.RegressionPct)
		}
	}
	want := map[string]bool{"span_disabled": false, "flight_append": false}
	for _, p := range d.Primitives {
		if p.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op, want 0", p.Op, p.AllocsPerOp)
		}
		if _, tracked := want[p.Op]; tracked {
			want[p.Op] = true
		}
	}
	for op, present := range want {
		if !present {
			t.Errorf("baseline is missing the %s primitive (regenerate with `make bench-obs`)", op)
		}
	}
	// The adaptive-reconfiguration recut runs at loop-boundary rate
	// (seconds apart), so its budget is latency, not allocations: a
	// 4096-coordinate 2D recut must stay under 2ms, which catches a
	// histogram re-balance that silently becomes superlinear.
	if d.Recut == nil || d.Recut.NsPerRecut <= 0 {
		t.Error("baseline is missing the recut latency row (regenerate with `make bench-obs`)")
	} else if d.Recut.NsPerRecut >= 2e6 {
		t.Errorf("mid-run recut latency %.0f µs for %d coords, budget is < 2000 µs",
			d.Recut.NsPerRecut/1e3, d.Recut.SpaceCoords)
	}
}

// BenchmarkVMIteration: steady-state per-iteration cost of the bytecode
// VM on the reference kernels — the vm_ns_per_iter column of
// BENCH_vm.json, kept as a plain benchmark so `make bench-smoke`
// exercises the measurement path.
func BenchmarkVMIteration(b *testing.B) {
	for _, ok := range obsKernels() {
		b.Run(ok.name, func(b *testing.B) {
			k, err := ok.newKernel()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.RunIteration(ok.key, ok.val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportRotation: one dense partition shipped peer-to-peer
// and installed, on the shipped codec and both frozen comparators — the
// measurement behind BENCH_transport.json.
func BenchmarkTransportRotation(b *testing.B) {
	a := dsm.NewDense("W", 16, 512)
	a.Map(func(float64) float64 { return 0.25 })
	p := a.ExtractRange(1, 0, 512)
	for _, path := range []struct {
		name string
		new  func() rotationPath
	}{
		{"gob", func() rotationPath { return newLegacyRotation(false) }},
		{"raw", func() rotationPath { return runtime.NewRotationBench() }},
		{"raw-nocrc", func() rotationPath { return newLegacyRotation(true) }},
	} {
		b.Run(path.name, func(b *testing.B) {
			rp := path.new()
			defer rp.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rp.RoundTrip(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
