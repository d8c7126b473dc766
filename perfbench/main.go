// Command perfbench is RegionWiz's end-to-end benchmark. It generates a
// seeded copy of the paper-scale synthetic corpus, drives one workload
// through the public API or the HTTP daemon for a fixed time, checks
// every report against the bugs the generator planted, and prints one
// JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload corpus-cold|edit-bdd|daemon-mixed \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown instead. See README.md
// for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not decide the figure.
const setupRounds = 5

// env is one set-up workload, ready to measure.
type env interface {
	// measure runs operations until the deadline, recording each one.
	measure(deadline time.Time, rec *recorder) error
	// close releases the workload's servers and handles and waits for
	// their goroutines.
	close()
}

// setups sets each workload up from its seed.
var setups = map[string]func(seed int64) (env, error){
	"corpus-cold":  setupCorpusCold,
	"edit-bdd":     setupEditBDD,
	"daemon-mixed": setupDaemonMixed,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: corpus-cold, edit-bdd, or daemon-mixed")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = report the per-layer breakdown instead of end-to-end metrics")
	flag.Parse()
	setup, ok := setups[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload corpus-cold|edit-bdd|daemon-mixed --seed N --seconds S --trace 0|1\n")
		return 2
	}
	res, err := bench(*name, setup, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench sets the workload up setupRounds times (keeping the last),
// measures it for the given time, and summarizes the recording.
func bench(name string, setup func(int64) (env, error), seed int64, seconds time.Duration, traced bool) (*result, error) {
	var setupS []float64
	var e env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.close()
		}
		// Start every set-up from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	rec := newRecorder(traced)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	cpu0 := processCPU()
	t0 := time.Now()
	err := e.measure(t0.Add(seconds), rec)
	elapsed := time.Since(t0)
	cpu := processCPU() - cpu0
	heapPeak := heap.stop()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if len(rec.lat) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	for _, p := range rec.problems {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect output: %s\n", p)
	}

	ops := float64(len(rec.lat))
	res := &result{
		Correct:   rec.failed == 0 && len(rec.problems) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		res.Metrics["latency_p50_ms"] = metric{percentile(rec.lat, 50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{percentile(rec.lat, 90), "ms"}
		res.Metrics["throughput_ops_s"] = metric{ops / elapsed.Seconds(), "1/s"}
		res.Metrics["alloc_mb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ops, "MB"}
		res.Metrics["cpu_ms_per_op"] = metric{float64(cpu) / 1e6 / ops, "ms"}
		res.Metrics["heap_peak_mb"] = metric{heapPeak / 1e6, "MB"}
		res.Metrics["setup_s"] = metric{percentile(setupS, 50), "s"}
		return res, nil
	}
	for name, v := range rec.layers(ops) {
		res.Metrics[name] = v
	}
	res.Metrics["gc_cycles"] = metric{float64(m1.NumGC-m0.NumGC) / ops, "count"}
	res.Metrics["gc_pause_ms"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops, "ms"}
	if err := writeTrace(rec, name, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// processCPU is the user plus system CPU time of the whole process so
// far, every thread included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak size of the heap's objects, live and not
// yet swept, from its start until stop.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

// heapSampleEvery is the sampling period; a GC cycle of the smallest
// workload takes longer.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.peak)
}

// percentile is the p-th percentile of xs with linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
