package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// heapAllocs returns the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds returns cumulative GC and total CPU seconds as the runtime
// estimates them.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runtimeWatch records Go-runtime costs over a measured window: the GC's
// share of CPU, the live-heap peak (sampled every few milliseconds) and the
// goroutines still running after the window's work is shut down.
type runtimeWatch struct {
	gc0, cpu0  float64
	goroutines int
	stop       chan struct{}
	done       sync.WaitGroup
	mu         sync.Mutex
	heapPeak   uint64
}

// watchRuntime starts the window.
func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{goroutines: runtime.NumGoroutine(), stop: make(chan struct{})}
	w.gc0, w.cpu0 = cpuSeconds()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			w.mu.Lock()
			if v := s[0].Value.Uint64(); v > w.heapPeak {
				w.heapPeak = v
			}
			w.mu.Unlock()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// finish ends the window and adds the runtime metrics to v. Call it after
// every server, client and worker the window started has been shut down:
// goroutines still running then (beyond the sampler, which has exited) are
// reported as leaked.
func (w *runtimeWatch) finish(v values) {
	close(w.stop)
	w.done.Wait()
	gc, cpu := cpuSeconds()
	v["runtime.gc_cpu_share"] = ratio(gc-w.gc0, cpu-w.cpu0)
	w.mu.Lock()
	v["runtime.heap_peak_mb"] = float64(w.heapPeak) / (1 << 20)
	w.mu.Unlock()
	v["runtime.goroutines_leaked"] = float64(settledGoroutines(w.goroutines) - w.goroutines)
}

// settledGoroutines waits up to a second for the goroutine count to fall to
// base (connection and timer goroutines exit asynchronously after a
// shutdown) and returns the last count seen.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
