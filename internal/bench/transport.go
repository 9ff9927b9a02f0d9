package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"orion/internal/dsm"
	"orion/internal/metrics"
	"orion/internal/runtime"
)

// The rotation-transport experiment: the cost of shipping one rotated
// dense partition peer-to-peer and installing it, through the
// production peer codec (an 'R' frame: sequence number, dsm partition
// layout, CRC32C trailer) and through the two frozen paths it replaced
// (legacy_transport.go), all over in-memory pipes with the client's
// bytes counted (so bytes include all framing). The gates in
// TestTransportBaselineThresholds hold the raw path to >= 5x fewer
// allocations than gob and >= 0.95x raw-nocrc's throughput, both in the
// committed BENCH_transport.json and in a live same-run measurement.

type transportRow struct {
	Path              string  `json:"path"`
	NsPerRotation     float64 `json:"ns_per_rotation"`
	AllocsPerRotation int64   `json:"allocs_per_rotation"`
	BytesPerRotation  int64   `json:"bytes_per_rotation"`
	MBPerSec          float64 `json:"mb_per_sec"`
}

type transportBaseline struct {
	Description string         `json:"description"`
	Rank        int64          `json:"rank"`
	Width       int64          `json:"width"`
	Rows        []transportRow `json:"rows"`
}

// rotationPath is one way of shipping a rotated partition.
type rotationPath interface {
	RoundTrip(p *dsm.Partition) error
	BytesSent() int64
	Close()
}

// measureTransport round-trips a rank x width dense partition through
// the gob, raw and raw-nocrc paths, round-robin through benchEach.
func measureTransport(rank, width int64) (*transportBaseline, error) {
	out := &transportBaseline{
		Description: "rotation transport: one dense partition shipped peer-to-peer and installed — gob, a frozen copy of the old per-message gob partition blobs; raw, the shipped codec (an 'R' frame carrying the dsm partition layout with frame sequencing and a CRC32C trailer, wide staging); and raw-nocrc, a frozen copy of the pre-hardening raw frame (no integrity layer, original 512-element staging); bytes include tag, framing, and trailer overhead",
		Rank:        rank,
		Width:       width,
	}
	a := dsm.NewDense("W", rank, width)
	a.Map(func(float64) float64 { return 0.25 })
	p := a.ExtractRange(1, 0, width)

	names := []string{"gob", "raw", "raw-nocrc"}
	paths := []rotationPath{newLegacyRotation(false), runtime.NewRotationBench(), newLegacyRotation(true)}
	defer func() {
		for _, rp := range paths {
			rp.Close()
		}
	}()
	benches := make([]func(b *testing.B), len(paths))
	ops := make([]int64, len(paths))
	before := make([]int64, len(paths))
	for i, rp := range paths {
		// Warm the codec and pools out of the measured region.
		for k := 0; k < 3; k++ {
			if err := rp.RoundTrip(p); err != nil {
				return nil, err
			}
		}
		before[i] = rp.BytesSent()
		benches[i] = func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				if err := rp.RoundTrip(p); err != nil {
					b.Fatal(err)
				}
			}
			ops[i] += int64(b.N)
		}
	}
	ns, allocs := benchEach(benches...)
	for i, rp := range paths {
		bytesPer := (rp.BytesSent() - before[i]) / ops[i]
		out.Rows = append(out.Rows, transportRow{
			Path:              names[i],
			NsPerRotation:     round1(ns[i]),
			AllocsPerRotation: allocs[i],
			BytesPerRotation:  bytesPer,
			MBPerSec:          math.Round(float64(bytesPer)/ns[i]*1e9/1e6*10) / 10,
		})
	}
	return out, nil
}

// TransportRotation is the "transport" experiment (the JSON baseline is
// written by orion-bench -transport-json).
func TransportRotation(_ Scale) (*Report, error) {
	d, err := measureTransport(16, 4096)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, r := range d.Rows {
		rows = append(rows, []string{
			r.Path,
			fmt.Sprintf("%.1f", r.NsPerRotation),
			fmt.Sprintf("%d", r.AllocsPerRotation),
			fmt.Sprintf("%d", r.BytesPerRotation),
			fmt.Sprintf("%.1f", r.MBPerSec),
		})
	}
	body := fmt.Sprintf("rotated dense partition %dx%d, peer codec round trip (ship + install):\n", d.Rank, d.Width) +
		metrics.Table([]string{"path", "ns/rotation", "allocs/rotation", "bytes/rotation", "MB/s"}, rows)
	return &Report{ID: "transport", Title: "zero-copy shard rotation vs gob partition blobs", Body: body}, nil
}

// WriteTransportBaseline measures the rotation transport and writes the
// BENCH_transport.json baseline.
func WriteTransportBaseline(path string) error {
	d, err := measureTransport(16, 4096)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
