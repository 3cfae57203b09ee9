package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// newClock returns a monotonic nanosecond clock. Every timed value in the
// benchmark is a difference of two of its readings; the layers under test
// never see it (the trace wrappers hold it as a plain func value).
func newClock() func() int64 {
	t0 := time.Now()
	return func() int64 { return int64(time.Since(t0)) }
}

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// spinMs times a fixed single-threaded loop: the host canary. It walks a
// 16 MiB table at pseudo-random indexes, because on a shared host it is
// the memory system, not the ALU, that a neighbour slows down. Two
// readings around a run that differ by more than a tenth mean the host's
// speed changed under the run.
func spinMs(now func() int64, iters int) float64 {
	table := make([]uint64, 2<<20)
	for i := range table {
		table[i] = uint64(i) // fault the pages in before the clock starts
	}
	t0 := now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&uint64(len(table)-1)] += x
	}
	ms := float64(now()-t0) / 1e6
	runtime.KeepAlive(table) // the stores above must happen
	return ms
}

// Runtime counters read through runtime/metrics.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mHeapLive     = "/memory/classes/heap/objects:bytes"
)

// counters is one reading of the process-wide runtime counters.
type counters struct {
	allocObjects, allocBytes, gcCycles, heapLive uint64
	cpuNs                                        int64
}

// meter reads runtime counters without allocating per reading.
type meter struct {
	all [4]metrics.Sample
	obj [2]metrics.Sample // objects, bytes: the per-call pair
}

func newMeter() *meter {
	m := &meter{}
	for i, n := range []string{mAllocObjects, mAllocBytes, mGCCycles, mHeapLive} {
		m.all[i].Name = n
	}
	m.obj[0].Name = mAllocObjects
	m.obj[1].Name = mAllocBytes
	return m
}

func (m *meter) read() counters {
	metrics.Read(m.all[:])
	return counters{
		allocObjects: m.all[0].Value.Uint64(),
		allocBytes:   m.all[1].Value.Uint64(),
		gcCycles:     m.all[2].Value.Uint64(),
		heapLive:     m.all[3].Value.Uint64(),
		cpuNs:        cpuNs(),
	}
}

// allocs returns the cumulative allocated object and byte counts. A delta
// around one call is that call's allocations only while nothing else
// runs, which is how the shadow chain and the shadow clients use it.
func (m *meter) allocs() (objects, bytes uint64) {
	metrics.Read(m.obj[:])
	return m.obj[0].Value.Uint64(), m.obj[1].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// environment is the block recorded beside a result set.
type environment struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	TempFS     string `json:"temp_dir_filesystem"`
	Seed       int64  `json:"seed"`
	Profile    string `json:"profile"`
	Runs       int    `json:"runs"`
}

func readEnvironment(tmpRoot string, seed int64, prof string, runs int) environment {
	return environment{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TempFS:     filesystemOf(tmpRoot),
		Seed:       seed,
		Profile:    prof,
		Runs:       runs,
	}
}

// gitSHA names the commit the benchmark was built from, "+dirty" when the
// work tree has uncommitted changes, "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "+dirty"
	}
	return sha
}

// filesystemOf names the filesystem holding dir by its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683e: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// setProcs pins GOMAXPROCS to min(nproc, 4), the recorded sizing rule.
func setProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

// newRunDir makes a fresh directory for one run's logs under root.
func newRunDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-*")
}

// dirBytes sums the sizes of the regular files directly inside dir and
// counts them.
func dirBytes(dir string) (bytes int64, files int, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
	}
	return bytes, files, nil
}
