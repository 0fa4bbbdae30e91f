package main

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// nClients is the closed-loop client count: two clients, each on its own
// connection, each sending its next request only after the previous one
// completed. Two matches the core count the benchmark is sized for.
const nClients = 2

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	ops      int // timed operations, over all clients and windows
	warmup   int // warm-up operations, over all clients
	setups   int // times the stack is built; setup_s is their median
	chunks   int // barrier-separated sub-windows of each timed window
	trace    bool
	workdir  string // working directory for WALs
	inputs   any    // what the workload's prepare generated, if it has one
	// checkHalves enables the warm-up self-check. With few operations per
	// half, the random operation mix alone moves a half's allocation per
	// operation by 10%, so runs under 8000 operations leave it off.
	checkHalves bool
}

// stack is one assembled portal deployment.
type stack struct {
	backends []*backend
	front    *frontDoor
	entry    string // base URL the clients send to
	model    any    // the workload's record of what it preloaded
	close    func() error
}

// runner executes one client's seeded operation sequence. do runs the
// next operation, returning how long the typed client call took and an
// error for a fault, a transport error or a wrong answer.
type runner interface {
	do() (time.Duration, error)
}

// pairer is a runner whose sequence has operations that come in pairs.
type pairer interface {
	pending() bool
}

// timed runs one typed client call and returns its latency, recording it
// as a client span while tracing is on.
func timed(tr *tracer, call func()) time.Duration {
	start := time.Now()
	call()
	d := time.Since(start)
	if tr != nil && tr.on.Load() {
		tr.sum[lClient].Add(int64(d))
		tr.n[lClient].Add(1)
	}
	return d
}

// workload is one traffic mix.
type workload interface {
	// setup builds a fresh, preloaded stack ready to serve. A nil tracer
	// builds it without any timing wrapper.
	setup(cfg *config, tr *tracer, dir string) (*stack, error)
	// client returns client id's runner against st.
	client(st *stack, id int, seed int64, tr *tracer) runner
	// endState checks the stack against the clients' model after the run
	// and returns the fingerprint that must repeat for a given seed.
	endState(st *stack, clients []runner) (map[string]int64, error)
}

// preparer is a workload that generates its inputs before any stack
// exists, so that neither setup_s nor heap_mb counts them.
type preparer interface {
	prepare(seed int64) any
}

// window accumulates one measurement mode (untraced or traced) over the
// chunks that ran in it.
type window struct {
	ops, failed int64
	rt          runtimeCounters // deltas
	chunks      []chunk
	chunkP50    []float64     // ms
	chunkP99    []float64     // ms
	chunkAlloc  []float64     // KiB per operation
	stats       stackCounters // deltas
	trace       traceSums     // deltas
}

// chunk is one chunk's operation count, wall time and process CPU time.
type chunk struct {
	ops       int64
	wall, cpu time.Duration
}

func (c chunk) rps() float64      { return float64(c.ops) / c.wall.Seconds() }
func (c chunk) cpuPerOp() float64 { return float64(c.cpu.Microseconds()) / float64(c.ops) }

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int64
	setup             []float64 // seconds, one per setup
	mount, replay     []float64 // seconds, one per setup
	warmup            time.Duration
	sinceFlush        time.Duration // from the warm-up's cache flush to the window's end
	gateway           bool          // the clients went through the gateway
	untraced, traced  window
	baseHeapMB        float64 // live heap before any stack was built
	heapMB            float64
	walP50, walP99    float64
	compactions       int64
	compactNS         int64
	endState          map[string]int64
	problems          []string // failed self-checks and end-state mismatches
	firstErr          error
}

// rig is one stack with its closed-loop clients. tr is nil on an untraced
// rig, which carries no timing wrapper at all.
type rig struct {
	st      *stack
	tr      *tracer
	clients []runner
}

// runBenchmark builds the stack cfg.setups times, warms it up, measures
// the timed window and checks the end state.
//
// A traced run builds two rigs from the same seed: the traced one, with a
// timing wrapper on every seam, and an untraced baseline without any. Both
// run the same operation sequences, in alternating chunks, so the traced
// window can be compared with an unwrapped one: the kernel's decode and
// cache counters show whether the wrappers changed a code path, and the
// overhead metrics include the cost of having the wrappers installed.
func runBenchmark(cfg config, w workload) (*outcome, error) {
	if p, ok := w.(preparer); ok {
		cfg.inputs = p.prepare(cfg.seed)
	}
	out := &outcome{baseHeapMB: liveHeapMB()}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	var rigs []*rig
	closeRigs := func() error {
		var errs []error
		for _, r := range rigs {
			errs = append(errs, r.st.close())
		}
		rigs = nil
		return errors.Join(errs...)
	}
	defer closeRigs() // error paths only; the normal path closes below

	for i := 0; i < cfg.setups; i++ {
		if err := closeRigs(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		runtime.GC()
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		st, err := w.setup(&cfg, tr, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		rigs = []*rig{{st: st, tr: tr}}
		if st.front != nil {
			out.gateway = true
			out.mount = append(out.mount, st.front.mount.Seconds())
		}
		var replay time.Duration
		for _, b := range st.backends {
			replay += b.replayTime()
		}
		out.replay = append(out.replay, replay.Seconds())
	}
	if cfg.trace {
		st, err := w.setup(&cfg, nil, filepath.Join(cfg.workdir, "baseline"))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rigs = []*rig{{st: st}, rigs[0]}
	}
	for _, r := range rigs {
		r.clients = make([]runner, nClients)
		for i := range r.clients {
			r.clients[i] = w.client(r.st, i, cfg.seed, r.tr)
		}
	}
	var errMu sync.Mutex
	noteErr := func(err error) {
		errMu.Lock()
		if out.firstErr == nil {
			out.firstErr = err
		}
		errMu.Unlock()
	}

	// Warm-up: a fixed count of the same operation stream, untimed, in
	// rounds that alternate between the rigs like the timed window's. Its
	// first half outlasts the process-wide xmlutil intern-table fill. The
	// response caches are then flushed, and the second half refills them:
	// every entry the timed window meets was stored after the flush, so
	// none expires (30 s TTL) in a window that ends within 30 s of it,
	// however fast the host ran the first half.
	start := time.Now()
	var flushed time.Time
	perWarm := cfg.warmup / nClients / cfg.chunks
	for k := 0; k < cfg.chunks; k++ {
		if k == cfg.chunks/2 {
			flushed = time.Now()
			for _, r := range rigs {
				for _, b := range r.st.backends {
					for _, c := range b.caches {
						c.Flush()
					}
				}
			}
		}
		for j := range rigs {
			r := rigs[(j+k)%len(rigs)]
			out.failed += runChunk(r.clients, perWarm, nil, noteErr)
			out.attempted += int64(perWarm * nClients)
		}
	}
	out.warmup = time.Since(start)

	// A traced run splits the timed operations between its two windows,
	// so it takes no longer than an untraced one.
	perChunk := cfg.ops / nClients / cfg.chunks / len(rigs)
	if perChunk < 1 {
		perChunk = 1
	}
	lat := make([][]int64, nClients)
	for i := range lat {
		lat[i] = make([]int64, perChunk)
	}
	for k := 0; k < cfg.chunks; k++ {
		// The rigs take turns at going first in a round, so that neither
		// always runs in the other's wake (its garbage, its cold caches).
		for j := range rigs {
			r := rigs[(j+k)%len(rigs)]
			win := &out.untraced
			if r.tr != nil {
				win = &out.traced
				r.tr.on.Store(true)
			}
			before := snapshot(r.st, r.tr)
			failed := runChunk(r.clients, perChunk, lat, noteErr)
			after := snapshot(r.st, r.tr)
			if r.tr != nil {
				r.tr.on.Store(false)
			}
			win.add(before, after, lat, failed)
			out.attempted += int64(perChunk * nClients)
			out.failed += failed
		}
	}

	out.sinceFlush = time.Since(flushed)

	var fps []map[string]int64
	for _, r := range rigs {
		// A client may have stopped between the two halves of a pair;
		// finish it, untimed, so the end state is the stationary one.
		for i, c := range r.clients {
			for p, ok := c.(pairer); ok && p.pending(); {
				out.attempted++
				if _, err := c.do(); err != nil {
					out.failed++
					noteErr(fmt.Errorf("client %d: %w", i, err))
				}
			}
		}
		fp, err := w.endState(r.st, r.clients)
		if err != nil {
			out.problems = append(out.problems, "end state: "+err.Error())
		}
		fps = append(fps, fp)
	}
	out.endState = fps[0]
	if len(fps) == 2 && !maps.Equal(fps[0], fps[1]) {
		out.problems = append(out.problems, fmt.Sprintf("traced end state %v differs from the untraced %v", fps[1], fps[0]))
	}
	out.heapMB = liveHeapMB()
	if tr != nil {
		out.walP50, out.walP99 = tr.walAppendPercentiles()
		out.compactions = tr.compactions.Load()
		out.compactNS = tr.compactNS.Load()
	}
	if err := closeRigs(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	out.selfCheck(cfg)
	return out, nil
}

// runChunk runs perClient operations on every client concurrently and
// waits for all of them: the barrier that separates chunks. lat, when
// non-nil, receives each client's call latencies in ns.
func runChunk(clients []runner, perClient int, lat [][]int64, noteErr func(error)) int64 {
	var wg sync.WaitGroup
	failed := make([]int64, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c runner) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				d, err := c.do()
				if err != nil {
					failed[i]++
					noteErr(fmt.Errorf("client %d: %w", i, err))
				}
				if lat != nil {
					lat[i][j] = int64(d)
				}
			}
		}(i, c)
	}
	wg.Wait()
	var n int64
	for _, f := range failed {
		n += f
	}
	return n
}

// point is the state of every counter at a chunk barrier.
type point struct {
	at    time.Time
	cpu   time.Duration
	rt    runtimeCounters
	stats stackCounters
	trace traceSums
}

func snapshot(st *stack, tr *tracer) point {
	p := point{stats: readStack(st)}
	if tr != nil {
		p.trace = tr.snapshot()
	}
	p.rt = readRuntime()
	p.cpu = processCPU()
	p.at = time.Now()
	return p
}

func (w *window) add(before, after point, lat [][]int64, failed int64) {
	wall := after.at.Sub(before.at)
	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	n := int64(len(all))
	w.ops += n
	w.failed += failed
	w.rt.allocBytes += after.rt.allocBytes - before.rt.allocBytes
	w.rt.gcCycles += after.rt.gcCycles - before.rt.gcCycles
	w.rt.gcCPU += after.rt.gcCPU - before.rt.gcCPU
	w.rt.totalCPU += after.rt.totalCPU - before.rt.totalCPU
	w.chunks = append(w.chunks, chunk{ops: n, wall: wall, cpu: after.cpu - before.cpu})
	w.chunkP50 = append(w.chunkP50, float64(percentile(all, 0.50))/1e6)
	w.chunkP99 = append(w.chunkP99, float64(percentile(all, 0.99))/1e6)
	w.chunkAlloc = append(w.chunkAlloc, float64(after.rt.allocBytes-before.rt.allocBytes)/1024/float64(n))
	w.stats = w.stats.plus(after.stats.minus(before.stats))
	for i := range w.trace.sum {
		w.trace.sum[i] += after.trace.sum[i] - before.trace.sum[i]
		w.trace.n[i] += after.trace.n[i] - before.trace.n[i]
	}
}

// middle returns the chunks whose throughput ranks in the middle half of
// the window. A contended stretch of the host slows the chunks it falls in;
// leaving out the slowest and the fastest quarter keeps it out of the
// window's figures, as the median does for the latency percentiles.
func (w *window) middle() []chunk {
	cs := slices.Clone(w.chunks)
	slices.SortFunc(cs, func(a, b chunk) int { return cmp.Compare(a.rps(), b.rps()) })
	q := len(cs) / 4
	return cs[q : len(cs)-q]
}

// throughput is completed operations per second of wall time over the
// middle chunks.
func (w *window) throughput() float64 {
	var ops int64
	var wall time.Duration
	for _, c := range w.middle() {
		ops += c.ops
		wall += c.wall
	}
	if wall <= 0 {
		return 0
	}
	return float64(ops) / wall.Seconds()
}

// cpuPerOp is process CPU time per operation over the same middle chunks,
// so cpuPerOp × throughput is their CPU time over their wall time.
func (w *window) cpuPerOp() float64 {
	var ops int64
	var cpu time.Duration
	for _, c := range w.middle() {
		ops += c.ops
		cpu += c.cpu
	}
	if ops == 0 {
		return 0
	}
	return float64(cpu.Microseconds()) / float64(ops)
}

func (w *window) allocPerOp() float64 {
	if w.ops == 0 {
		return 0
	}
	return float64(w.rt.allocBytes) / 1024 / float64(w.ops)
}

// halves returns the mean of a per-operation chunk series over the
// window's first and second half of chunks. Chunks hold equal operation
// counts, so each mean is its half's own per-operation value.
func halves(series []float64) (first, second float64) {
	h := len(series) / 2
	if h == 0 {
		return 0, 0
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(series[:h]), mean(series[h:])
}

// checkHalves reports where the window's halves disagree. A warm-up that
// ended before the xmlutil intern table filled shows as a first half that
// is slower (2-3x) and allocates more (3-4x) than the second. Throughput
// is judged loosely, since host contention alone moves a half by up to
// 1.5x on a shared two-core machine; allocation per operation does not
// depend on the host and is judged tightly.
func (w *window) checkHalves() []string {
	var out []string
	secPerOp := make([]float64, len(w.chunks))
	for i, c := range w.chunks {
		secPerOp[i] = 1 / c.rps()
	}
	if a, b := halves(secPerOp); b > a*1.6 || b < a/1.6 {
		out = append(out, fmt.Sprintf("timed window halves disagree on throughput: %.0f then %.0f ops/s", 1/a, 1/b))
	}
	if a, b := halves(w.chunkAlloc); b > a*1.1 || b < a/1.1 {
		out = append(out, fmt.Sprintf("timed window halves disagree on allocation: %.1f then %.1f KiB/op", a, b))
	}
	return out
}

// selfCheck records every failed self-check in o.problems.
func (o *outcome) selfCheck(cfg config) {
	if o.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d operations failed; first: %v", o.failed, o.attempted, o.firstErr))
	}
	wins := []*window{&o.untraced}
	if cfg.trace {
		wins = append(wins, &o.traced)
	}
	for _, w := range wins {
		// CPU over exactly a chunk can never exceed every core busy for
		// the whole chunk. The kernel brings a running thread's CPU time
		// up to date at scheduler ticks, so rusage may read up to a few
		// ticks ahead of the wall clock; cpuSlack allows for that.
		for i, c := range w.chunks {
			if c.cpu > time.Duration(runtime.NumCPU())*c.wall+cpuSlack {
				busy := c.cpuPerOp() * c.rps()
				o.problems = append(o.problems, fmt.Sprintf("chunk %d: cpu_us_per_op x throughput_rps = %.0f exceeds %d cores", i, busy, runtime.NumCPU()))
			}
		}
		if cfg.checkHalves {
			o.problems = append(o.problems, w.checkHalves()...)
		}
	}
	if cfg.trace {
		// Both rigs ran the same operation sequences, so each request is
		// decoded the same way on both; only the interleaving of the two
		// clients, which decides which of them fills a shared cache entry
		// first, may move the hit ratio, by about its sampling error.
		u, t := o.untraced.stats, o.traced.stats
		if u.decodeFast != t.decodeFast || u.decodeTree != t.decodeTree {
			o.problems = append(o.problems, fmt.Sprintf("decode paths differ: traced %d fast, %d tree; untraced %d fast, %d tree", t.decodeFast, t.decodeTree, u.decodeFast, u.decodeTree))
		}
		if !sameShare(u.cacheHits, u.cacheHits+u.cacheMisses, t.cacheHits, t.cacheHits+t.cacheMisses) {
			o.problems = append(o.problems, fmt.Sprintf("cache hit ratio differs: traced %.4f, untraced %.4f", t.hitRatio(), u.hitRatio()))
		}
	}
}

// cpuSlack is the CPU time by which a chunk's rusage reading may exceed
// every core busy for the chunk's wall time: a few scheduler ticks.
const cpuSlack = 20 * time.Millisecond

// sameShare reports whether two observed proportions k1/n1 and k2/n2 agree
// within four standard errors of their difference.
func sameShare(k1, n1, k2, n2 uint64) bool {
	if n1 == 0 || n2 == 0 {
		return n1 == n2
	}
	p1, p2 := float64(k1)/float64(n1), float64(k2)/float64(n2)
	p := float64(k1+k2) / float64(n1+n2)
	se := math.Sqrt(p * (1 - p) * (1/float64(n1) + 1/float64(n2)))
	return math.Abs(p1-p2) <= 4*se
}
