package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"lunasolar/internal/crc.update":                               "crc",
		"lunasolar/internal/sim.(*Engine).siftDown (inline)":          "sim",
		"lunasolar/internal/sim/runtime.(*Coupled).Run":               "sim",
		"lunasolar/ebs.(*Cluster).RunFor":                             "ebs",
		"lunasolar/ebs.New.func1":                                     "ebs",
		"lunasolar/internal/stats.(*Ring[go.shape.int]).Push":         "stats",
		"lunasolar/internal/simnet.Map[go.shape.*uint8,go.shape.int]": "simnet",
		"type:.eq.lunasolar/internal/wire.Header":                     "wire",
		"lunasolar/cmd/ebsbench.main":                                 "other",
		"main.(*round).drive":                                         "bench",
		"main.fillBlock":                                              "bench",
		"runtime.mallocgc":                                            "",
		"crypto/aes.encryptBlockAsm":                                  "",
		"hash/crc32.ieeeCLMUL":                                        "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeFixture checks the innermost-frame rule on a fixed
// `go tool pprof -traces` listing.
func TestAttributeFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"crc":     0.40, // memmove billed to its caller
		"sim":     0.30, // sim/runtime folds into sim
		"bench":   0.10, // mallocgc billed to the benchmark's fillBlock
		"runtime": 0.10, // GC worker: no repository frame at all
		"other":   0.05, // workload is not a reported module
		"simnet":  0.05, // generated equality of a simnet type
	}
	for _, m := range shareModules {
		if got := shares[m]; math.Abs(got-want[m]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", m, got, want[m])
		}
	}
}

func TestAttributeRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"File: x\nType: cpu\n",
		"-----------+----\nnot-a-duration main.main\n",
	} {
		if _, err := attribute(strings.NewReader(in)); err == nil {
			t.Errorf("attribute(%q) succeeded, want an error", in)
		}
	}
}

// TestCPUSharesRealProfile profiles a busy loop in this package and checks
// that the toolchain's pprof output is attributed to the benchmark.
func TestCPUSharesRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	err := profiled(path, func() error {
		buf := make([]byte, blockBytes)
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			fillBlock(buf, uint64(buf[0]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range shareModules {
		sum += shares[m]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share = %v, want most of a busy loop in fillBlock (shares %v)", shares["bench"], shares)
	}
}
