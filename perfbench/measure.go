package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read: every duration below is
// the difference of two now() values.
func now() time.Time {
	//lint:ignore determinism the benchmark measures wall time; no program output depends on it
	return time.Now()
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return now().Sub(t0).Seconds() }

// Setup is repeated and setup_s is the median. Setups take from a
// fraction of a millisecond to a few milliseconds, so a run repeats
// them at least minSetups times and for at least setupSeconds, up to
// maxSetups times, to keep the median steady.
const (
	minSetups    = 31
	maxSetups    = 301
	setupSeconds = 0.1
)

// moreSetups reports whether a run that has timed the given setups
// should set up once more.
func moreSetups(setups []float64) bool {
	total := 0.0
	for _, s := range setups {
		total += s
	}
	n := len(setups)
	return n < minSetups || (total < setupSeconds && n < maxSetups)
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's peak resident set size in MiB, as the
// kernel reports it through getrusage (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSnapshot is the runtime allocation state at one instant.
type memSnapshot struct {
	totalAlloc uint64
	numGC      uint32
}

// readMem snapshots the runtime's cumulative allocation and GC counts.
func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// fsMagic names the filesystem types the output directory is likely
// to sit on, keyed by statfs f_type.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding dir, or its statfs magic in hex.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// treeDigest hashes every regular file under dir, in lexical path
// order, as (relative path, size, contents). It returns the hex digest
// and the total file bytes.
func treeDigest(dir string) (string, int64, error) {
	h := sha256.New()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		n, err := io.Copy(h, f)
		if err != nil {
			return fmt.Errorf("hashing %s: %w", path, err)
		}
		fmt.Fprintf(h, "\x00%d\x00", n)
		total += n
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// memSampler tracks the memory the Go runtime holds from the OS —
// everything it has mapped minus what it has released back — sampled
// every memSampleEvery, and keeps the peak since the last mark. Unlike
// the process's lifetime maxrss, a per-unit peak can be summarized by
// a median over a run's units, so one unlucky GC cycle does not set a
// run's figure.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const memSampleEvery = 5 * time.Millisecond

// startMemSampler starts the sampling goroutine; stop ends it.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			m.observe(heldBytes())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// observe raises the peak to v.
func (m *memSampler) observe(v uint64) {
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// mark starts a new unit: the peak restarts from what is held now.
func (m *memSampler) mark() { m.peak.Store(heldBytes()) }

// peakMB returns the peak since the last mark, in MiB.
func (m *memSampler) peakMB() float64 {
	m.observe(heldBytes())
	return float64(m.peak.Load()) / (1 << 20)
}

// close stops the sampling goroutine and waits for it to return.
func (m *memSampler) close() {
	close(m.stop)
	m.wg.Wait()
}

// heldBytes is the memory the Go runtime has mapped and not released.
func heldBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}
