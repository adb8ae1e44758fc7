package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// writeHeader prints the environment the figures were measured in: a
// figure without its machine cannot be compared with another.
func writeHeader(w io.Writer, workload string, seed int64, seconds float64, trace int) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, trace)
	fmt.Fprintf(w, "# cpu: %s\n", cpuModel())
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# commit=%s source_sha256=%s\n", commit(), sourceDigest("."))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a checkout without version control has none, and the source digest
// identifies the code instead.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "none"
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and module file under root (build
// output and version-control metadata excluded), so two runs can tell
// whether they measured the same code without a VCS.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || filepath.Base(path) == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// controlMS times a fixed pure-Go computation that calls no program code:
// the median of seven runs of a float and integer mix. A change in it
// between two runs is the machine's, not the program's.
func controlMS() float64 {
	times := make([]float64, 7)
	for i := range times {
		t0 := time.Now()
		controlSink = controlWork(3_000_000)
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(times)
}

var controlSink float64

func controlWork(n int) float64 {
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += math.Sqrt(float64(x>>11)) * 1e-9
	}
	return acc
}

// epoch anchors nowNS.
var epoch = time.Now()

// nowNS is a monotonic nanosecond stamp.
func nowNS() int64 { return int64(time.Since(epoch)) }

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mix derives independent seed material from (seed, id) with the
// splitmix64 finalizer.
func mix(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFF)
}
