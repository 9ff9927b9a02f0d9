package dsm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeTestCheckpoint(t *testing.T, dir string, clock int64, keep int) *Manifest {
	t.Helper()
	w := NewDense("W", 2, 3)
	w.SetAt(float64(clock), 1, 2)
	h := NewDense("H", 4)
	h.SetAt(0.5, 0)
	man := &Manifest{
		Clock:       clock,
		ResumePass:  int(clock) / 10,
		Workers:     3,
		Loop:        "dsl-loop-1",
		Fingerprint: "fp-abc",
		Accums:      map[string]float64{"err": float64(clock) * 1.5},
	}
	if _, err := WriteCheckpoint(dir, man, []*DistArray{w, h}, keep); err != nil {
		t.Fatal(err)
	}
	return man
}

func TestManifestWriteRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 7, 0)

	man, err := LatestManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Clock != 7 || man.Version != ManifestVersion {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Loop != "dsl-loop-1" || man.Fingerprint != "fp-abc" || man.Workers != 3 {
		t.Fatalf("manifest identity lost: %+v", man)
	}
	if len(man.Arrays) != 2 || man.Arrays[0] != "H" || man.Arrays[1] != "W" {
		t.Fatalf("arrays = %v, want sorted [H W]", man.Arrays)
	}
	if man.Accums["err"] != 10.5 {
		t.Fatalf("accums = %v", man.Accums)
	}
	restored, err := RestoreCheckpoint(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored["W"].At(1, 2); got != 7 {
		t.Fatalf("restored W[1,2] = %v, want 7", got)
	}
	if got := restored["H"].At(0); got != 0.5 {
		t.Fatalf("restored H[0] = %v, want 0.5", got)
	}
}

func TestManifestListNewestFirstAndPrune(t *testing.T) {
	dir := t.TempDir()
	for clock := int64(1); clock <= 6; clock++ {
		writeTestCheckpoint(t, dir, clock, 3)
	}
	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 3 {
		t.Fatalf("kept %d checkpoints, want 3 (prune)", len(mans))
	}
	for i, want := range []int64{6, 5, 4} {
		if mans[i].Clock != want {
			t.Fatalf("order: mans[%d].Clock = %d, want %d", i, mans[i].Clock, want)
		}
	}
	// The pruned directories are really gone.
	if _, err := os.Stat(filepath.Join(dir, ckptDirName(1))); !os.IsNotExist(err) {
		t.Fatalf("pruned checkpoint still on disk: %v", err)
	}
}

func TestManifestSweepsCrashDebris(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 3, 0)

	// A staging dir from a writer that crashed before the rename, and a
	// committed-looking dir whose manifest never landed: both must be
	// swept, not restored from.
	stale := filepath.Join(dir, ckptDirName(9)+tmpSuffix)
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	headless := filepath.Join(dir, ckptDirName(8))
	if err := os.MkdirAll(headless, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(headless, "W.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 || mans[0].Clock != 3 {
		t.Fatalf("list = %+v, want only the committed clock-3 checkpoint", mans)
	}
	for _, gone := range []string{stale, headless} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("%s not swept: %v", gone, err)
		}
	}

	// A missing directory is an empty list, not an error.
	if mans, err := ListCheckpoints(filepath.Join(dir, "nope")); err != nil || len(mans) != 0 {
		t.Fatalf("missing dir: %v, %v", mans, err)
	}
}

func TestManifestRestoreErrorNamesEveryFailure(t *testing.T) {
	dir := t.TempDir()
	man := writeTestCheckpoint(t, dir, 5, 0)
	cdir := filepath.Join(dir, ckptDirName(5))
	if err := os.WriteFile(filepath.Join(cdir, "W.ckpt"), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cdir, "H.ckpt")); err != nil {
		t.Fatal(err)
	}
	_, err := RestoreCheckpoint(dir, man)
	var rerr *RestoreError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RestoreError", err)
	}
	if len(rerr.Failed) != 2 {
		t.Fatalf("failed = %v, want both arrays reported", rerr.Failed)
	}
	if rerr.Errs["W"] == nil || rerr.Errs["H"] == nil {
		t.Fatalf("per-array errors missing: %+v", rerr.Errs)
	}
	if rerr.Unwrap() == nil {
		t.Fatal("RestoreError must unwrap to an underlying cause")
	}
}

func TestManifestVersionMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 2, 0)
	cdir := filepath.Join(dir, ckptDirName(2))
	// Rewrite the manifest with a future version: the checkpoint becomes
	// unusable and is dropped from the listing, but it is not debris —
	// it stays on disk for the binary that wrote it.
	if err := os.WriteFile(filepath.Join(cdir, manifestFile),
		[]byte(`{"version": 99, "clock": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mans, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 0 {
		t.Fatalf("future-version checkpoint listed: %+v", mans)
	}
	if _, err := os.Stat(filepath.Join(cdir, manifestFile)); err != nil {
		t.Fatalf("future-version checkpoint deleted by listing: %v", err)
	}
}

// TestCheckpointShardIntegrity: a committed shard with one flipped bit
// in a float, or cut short, fails restore with a *RestoreError naming
// that array instead of restoring wrong values; and a sparse array
// checkpointed twice writes byte-identical shards.
func TestCheckpointShardIntegrity(t *testing.T) {
	for _, damage := range []string{"bit flip", "truncate"} {
		dir := t.TempDir()
		man := writeTestCheckpoint(t, dir, 4, 0)
		shard := filepath.Join(dir, ckptDirName(4), "W.ckpt")
		data, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		if damage == "bit flip" {
			// W[1,2] is the last of W's six dense floats: flip a
			// mantissa bit just ahead of the trailer.
			data[len(data)-shardTrailerLen-3] ^= 0x04
		} else {
			data = data[:len(data)-11]
		}
		if err := os.WriteFile(shard, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := RestoreCheckpoint(dir, man)
		var rerr *RestoreError
		if !errors.As(err, &rerr) {
			t.Fatalf("%s: restore returned %v, %v; want *RestoreError", damage, got, err)
		}
		if len(rerr.Failed) != 1 || rerr.Failed[0] != "W" || rerr.Errs["W"] == nil {
			t.Fatalf("%s: failures = %+v, want exactly W", damage, rerr)
		}
	}

	s := NewSparse("S", 8, 8)
	for i := int64(0); i < 50; i++ {
		s.SetAt(float64(i)-20.5, i%8, (i*3)%8)
	}
	dir := t.TempDir()
	var shards [2][]byte
	for i := range shards {
		if _, err := WriteCheckpoint(dir, &Manifest{Clock: int64(i + 1)}, []*DistArray{s}, 0); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, ckptDirName(int64(i+1)), "S.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = data
	}
	if !bytes.Equal(shards[0], shards[1]) {
		t.Fatal("the same sparse array checkpointed twice wrote different shard bytes")
	}
}
