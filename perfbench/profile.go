package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Per-module CPU attribution. Each CPU sample is billed to the innermost
// frame of its stack that belongs to a lunasolar package, so allocation,
// copying and hashing done by the runtime or standard library count
// against the module that asked for them. Frames of the benchmark's own
// main package count as "bench"; samples with neither count as "runtime"
// (garbage collection, scheduler, profiler).

// shareModules are the modules whose CPU share is reported, in report
// order. Lunasolar modules not listed are billed to "other".
var shareModules = []string{
	"crc", "seccrypto", "rdma", "blockserver", "chunkserver", "sa", "core",
	"tcpstack", "sim", "simnet", "ebs", "dpu", "cc", "wire", "trace",
	"other", "bench", "runtime",
}

// moduleOf returns the module a pprof function name belongs to: the first
// path element under lunasolar/internal/ (or "ebs" for lunasolar/ebs),
// "bench" for the benchmark itself, or "" for any frame outside the
// repository.
func moduleOf(fn string) string {
	fn = strings.TrimSuffix(strings.TrimSpace(fn), " (inline)")
	fn = strings.TrimPrefix(fn, "type:.eq.") // generated equality of a package's type
	// The package path ends at the first dot after the last slash that
	// precedes any receiver or type-parameter list.
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	pkg := head[:slash+1+dot]
	switch {
	case pkg == "main" || pkg == "lunasolar/perfbench": // the latter in test binaries
		return "bench"
	case pkg == "lunasolar/ebs" || strings.HasPrefix(pkg, "lunasolar/ebs/"):
		return "ebs"
	case strings.HasPrefix(pkg, "lunasolar/internal/"):
		mod := strings.TrimPrefix(pkg, "lunasolar/internal/")
		if i := strings.Index(mod, "/"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case strings.HasPrefix(pkg, "lunasolar/"):
		return "other"
	}
	return ""
}

// attribute reads `go tool pprof -traces` output and returns each module's
// share of the sampled CPU time, with every module of shareModules
// present. The output is a header, then one block per distinct stack,
// each opened by a separator line: the block's first line is the sample
// value and the innermost frame, the following lines the callers.
func attribute(traces io.Reader) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range shareModules {
		known[m] = true
	}
	billed := map[string]time.Duration{}
	var total, cur time.Duration
	var mod string
	inBlock, first := false, false
	flush := func() {
		switch {
		case cur == 0:
			return
		case mod == "":
			mod = "runtime"
		case !known[mod]:
			mod = "other"
		}
		billed[mod] += cur
		total += cur
		cur, mod = 0, ""
	}
	sc := bufio.NewScanner(traces)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, first = true, true
			continue
		}
		frame := strings.TrimSpace(line)
		if !inBlock || frame == "" {
			continue
		}
		if first {
			first = false
			value, rest, _ := strings.Cut(frame, " ")
			d, err := time.ParseDuration(value)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			cur, frame = d, strings.TrimSpace(rest)
		}
		if mod == "" {
			mod = moduleOf(frame)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for _, m := range shareModules {
		shares[m] = float64(billed[m]) / float64(total)
	}
	return shares, nil
}

// cpuShares runs the toolchain's pprof over CPU profiles, which it merges,
// and attributes their samples to modules.
func cpuShares(profiles []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %v: %w", profiles, err)
	}
	return attribute(strings.NewReader(string(out)))
}
