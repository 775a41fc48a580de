package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usage is a process resource-usage reading. cpu is the process CPU time
// (user+sys) from CLOCK_PROCESS_CPUTIME_ID, which the kernel keeps to the
// nanosecond; getrusage's user/sys split is sampled at scheduler ticks, so
// over windows of a few milliseconds it is used only for the split.
type usage struct {
	cpu         time.Duration
	user, sys   time.Duration
	vcsw, ivcsw int64
	wall        time.Time
}

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID

func readUsage() usage {
	var ts syscall.Timespec
	// Neither call can fail for the calling process.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		cpu:   time.Duration(ts.Nano()),
		user:  time.Duration(ru.Utime.Nano()),
		sys:   time.Duration(ru.Stime.Nano()),
		vcsw:  ru.Nvcsw,
		ivcsw: ru.Nivcsw,
		wall:  time.Now(),
	}
}

// sub returns the usage accrued between u0 and u.
func (u usage) sub(u0 usage) usage {
	return usage{cpu: u.cpu - u0.cpu, user: u.user - u0.user, sys: u.sys - u0.sys,
		vcsw: u.vcsw - u0.vcsw, ivcsw: u.ivcsw - u0.ivcsw}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, user: u.user + v.user, sys: u.sys + v.sys,
		vcsw: u.vcsw + v.vcsw, ivcsw: u.ivcsw + v.ivcsw}
}

// runContext identifies what was measured and where. Every output row
// carries it.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
}

func newRunContext(workload string, seed int64, trace int) runContext {
	return runContext{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Commit:     commit(),
		SourceHash: sourceHash("."),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel(),
	}
}

// commit names the checked-out commit, or "unknown" outside a git work tree
// (the benchmark also runs from plain source exports; sourceHash identifies
// the code there).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under root, in path order,
// skipping hidden directories (build outputs live there).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
