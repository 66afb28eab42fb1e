// Command perfbench is the repository's benchmark: it runs one named
// workload against the emulator from a single load-generator process,
// checks that every delivery is correct, and prints every metric by name
// with its unit. Each layer is measured from outside — the benchmark
// times its own calls into public functions and, after the run, reads
// the counters the emulator already exports. METRICS.md is the metric
// dictionary.
//
// Usage:
//
//	perfbench --workload tcp_pair --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it
// are the human-readable report: host block, schedule digest, every
// metric with its unit and sample count, and any correctness failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Each run builds the whole workload from scratch several times: all
// but the last build are torn down at once, and setup_s is the median,
// so one slow build does not move the figure. Builds repeat at least
// minSetupRounds times and until setupBudget is spent, at most
// maxSetupRounds times.
const (
	minSetupRounds = 3
	maxSetupRounds = 101
	setupBudget    = 2 * time.Second
)

// metric is one reported figure. n is its sample count (0 where the
// figure is not a statistic over samples).
type metric struct {
	name, unit string
	value      float64
	n          uint64
}

type metricSet struct{ ms []metric }

func (s *metricSet) put(name, unit string, v float64, n uint64) {
	for i := range s.ms {
		if s.ms[i].name == name {
			s.ms[i] = metric{name, unit, v, n}
			return
		}
	}
	s.ms = append(s.ms, metric{name, unit, v, n})
}

func (s *metricSet) get(name string) (metric, bool) {
	for _, m := range s.ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil in untraced runs
	chk      *checker

	e2e, layer metricSet
	info       []string // host block and schedule digest lines

	attempted, failed uint64

	// Traffic-phase accounting, summed over traffic() calls.
	trafficWall time.Duration
	cpu         time.Duration
	mallocs     uint64
	gcPause     time.Duration
	delivered   uint64
	window      uint64  // deliveries per lateness window; the workload sets it
	gen         hist    // generator lag, wall ns
	dials       samples // core.Dial durations, ns
	sceneOps    [opRadios + 1]samples
	replLag     samples // ns
	rates       samples // deliveries per second, per sampler interval
	cpuPer      samples // CPU µs per delivery, per sampler interval
	depthMax    int     // deepest schedule seen by the sampler
	egressMax   uint64  // deepest gateway egress backlog seen by the sampler
	goroutines  float64 // per session, measured with traffic flowing
}

// env is one built workload instance.
type env interface {
	// traffic generates load for d, then waits until every operation it
	// started has settled (the emulator is quiescent).
	traffic(b *bench, d time.Duration)
	// finish runs the correctness checks at quiesce and reads the
	// program's counters into per-layer metrics; close tears down.
	finish(b *bench)
	close(b *bench)
}

// workload pairs an input generator with a builder. The input is
// generated once per run from the seed, outside the timed setup.
type workload struct {
	name  string
	input func(seed int64, d time.Duration) []event
	setup func(b *bench, in []event, final bool) (env, error)
}

var workloads = []workload{
	{"tcp_pair", tcpEvents, setupTCPPair},
	{"storm_inproc", func(seed int64, _ time.Duration) []event { return stormInput(seed) }, setupStorm},
	{"churn_multiradio", churnEvents, setupChurn},
	{"relay_fed_udp", relayEvents, setupRelay},
}

func main() {
	name := flag.String("workload", "", "workload to run: tcp_pair, storm_inproc, churn_multiradio or relay_fed_udp")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	secs := flag.Float64("seconds", 10, "length of the measured traffic phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics and tracing overhead")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	b := &bench{workload: *name, seed: *seed, seconds: time.Duration(*secs * float64(time.Second))}
	ok, err := b.run(w, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	b.print(*traced == 1, ok)
	if !ok {
		os.Exit(1)
	}
}

func (b *bench) run(w *workload, traced bool) (bool, error) {
	b.info = append(b.info, hostBlock()...)
	if traced {
		b.tr = newTracer(1 << 20) // dial spans are recorded from the first setup on
	}
	in := w.input(b.seed, b.seconds)
	b.info = append(b.info, fmt.Sprintf("input  workload=%s seed=%d events=%d digest=%016x",
		b.workload, b.seed, len(in), digest(in)))
	var e env
	var setups []float64
	var spent time.Duration
	for i := 0; ; i++ {
		// Fast set-ups are repeated more often, so their median is as
		// steady as that of slow ones.
		final := i == maxSetupRounds-1 || (i >= minSetupRounds-1 && spent >= setupBudget)
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = w.setup(b, in, final)
		if err != nil {
			if e != nil {
				e.close(b)
			}
			return false, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		if final {
			break
		}
		e.close(b)
	}
	b.e2e.put("setup_s", "s", median(setups), uint64(len(setups)))

	if !traced {
		b.measure(e, b.seconds)
	} else {
		// The traced run measures half its time untraced and half
		// traced on the same instance; the CPU-per-delivery difference
		// is the tracing overhead.
		half := b.seconds / 2
		b.measure(e, half)
		plain := b.cpuPerDelivery()
		b.chk.tr.Store(b.tr)
		cpu0, del0 := b.cpu, b.delivered
		b.measure(e, b.seconds-half)
		if d := b.delivered - del0; d > 0 && plain > 0 {
			traced := float64(b.cpu-cpu0) / float64(time.Microsecond) / float64(d)
			b.putLayer("trace.overhead_cpu_frac", traced/plain-1, d)
		}
	}
	b.endToEnd()
	e.finish(b)
	e.close(b)
	b.layerCommon()
	b.codecTimings()
	if b.tr != nil {
		b.traceMetrics()
	}
	b.failed += b.chk.bad()
	fails := b.chk.failures()
	return len(fails) == 0 && b.failed == 0, nil
}

// measure runs one traffic phase and accumulates its wall time, CPU,
// allocations and GC pauses.
func (b *bench) measure(e env, d time.Duration) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	del0 := b.chk.received.Load()
	b.chk.windows.per = b.window
	t0 := time.Now()
	e.traffic(b, d)
	b.trafficWall += time.Since(t0)
	b.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	b.mallocs += ms1.Mallocs - ms0.Mallocs
	b.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	b.delivered += b.chk.received.Load() - del0
}

func (b *bench) cpuPerDelivery() float64 {
	if b.delivered == 0 {
		return 0
	}
	return float64(b.cpu) / float64(time.Microsecond) / float64(b.delivered)
}

// endToEnd reports the user-visible figures. Throughput, CPU per
// delivery and the lateness quantiles are medians over the traffic
// phase's intervals (sampler marks, windows of consecutive deliveries); the
// whole-run values are reported beside them as per-layer context.
func (b *bench) endToEnd() {
	n, whole := b.chk.lateness.quantiles(0.5, 0.99)
	q, wins := b.chk.windows.medianQuantiles(0.5, 0.99)
	b.e2e.put("delivered_per_s", "1/s", b.rates.quantile(0.5), uint64(len(b.rates)))
	b.e2e.put("lateness_p50_us", "us", q[0]/1e3, uint64(wins))
	b.putLayer("lateness.p99_us", q[1]/1e3, uint64(wins))
	b.e2e.put("cpu_us_per_delivery", "us", b.cpuPer.quantile(0.5), uint64(len(b.cpuPer)))
	b.putLayer("run.lateness_us.p50", whole[0]/1e3, n)
	b.putLayer("run.lateness_us.p99", whole[1]/1e3, n)
	b.putLayer("run.delivered_per_s", float64(b.delivered)/b.trafficWall.Seconds(), b.delivered)
	b.putLayer("run.cpu_us_per_delivery", b.cpuPerDelivery(), b.delivered)
	b.putLayer("runtime.peak_rss_mb", peakRSSMB(), 0)
	// The peak depends on when the collector last ran; the footprint
	// after a full collection, with the workload still built, does not.
	debug.FreeOSMemory()
	b.e2e.put("rss_mb", "MB", rssMB(), 0)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the current resident set from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// e2eNames and layerNames are the metrics the final JSON line carries,
// in the order BENCHMARK.json lists them.
var e2eNames = []string{"delivered_per_s", "lateness_p50_us", "cpu_us_per_delivery", "setup_s", "rss_mb"}

func (b *bench) print(traced, ok bool) {
	out := os.Stdout
	for _, l := range b.info {
		fmt.Fprintln(out, l)
	}
	show := func(kind string, s *metricSet) {
		ms := append([]metric(nil), s.ms...)
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		for _, m := range ms {
			n := "-"
			if m.n > 0 {
				n = fmt.Sprint(m.n)
			}
			fmt.Fprintf(out, "%-6s %-36s %16.4f %-14s n=%s\n", kind, m.name, m.value, m.unit, n)
		}
	}
	show("e2e", &b.e2e)
	show("layer", &b.layer)
	fmt.Fprintf(out, "ops    attempted=%d failed=%d failed_frac=%.6f\n",
		b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	for _, f := range b.chk.failures() {
		fmt.Fprintf(out, "FAIL   %s\n", f)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	names := e2eNames
	set := &b.e2e
	if traced {
		names, set = layerNames, &b.layer
	}
	for _, n := range names {
		m, found := set.get(n)
		if !found {
			m = metric{name: n, unit: layerUnit(n)}
		}
		metrics[n] = jm{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{ok, max(b.attempted, 1), b.failed, metrics})
	fmt.Fprintln(out, string(line))
}

func layerUnit(name string) string {
	for _, l := range layerCatalog {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// hostBlock describes the machine and build the numbers came from.
func hostBlock() []string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return []string{fmt.Sprintf("host   nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, commit())}
}
