// Command portalbench is the portal stack's end-to-end benchmark. It
// assembles the real stack in one process over 127.0.0.1 TCP, drives it
// with two closed-loop clients through a seeded, fixed-count operation
// sequence, checks every answer, and prints one JSON result line.
//
//	bash portalbench/run.sh --workload discovery --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// workloads by name, with the operation rate each is sized for: a run
// issues rate × --seconds timed operations (a fixed count, so the end state
// is the same on every build), after a fixed warm-up. Rates sit below what
// the two-core machine the benchmark was sized on sustains, so that at
// --seconds 25 the timed window ends within the 30 s cache TTL of the
// warm-up's flush even while the host runs a third slower than usual.
var workloads = map[string]struct {
	w      workload
	rate   int // timed operations per --seconds
	warmup int // warm-up operations
}{
	"discovery": {discovery{}, 3200, 24000},
	"session":   {session{}, 4000, 6000},
	"transfer":  {transfer{}, 400, 400},
}

func main() {
	res, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "portalbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "portalbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mainErr(args []string, log io.Writer) (*result, error) {
	fs := flag.NewFlagSet("portalbench", flag.ContinueOnError)
	name := fs.String("workload", "", "discovery, session or transfer")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of the timed window, as an operation count at the workload's nominal rate")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	spec, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		ops:      spec.rate * *seconds,
		warmup:   spec.warmup,
		setups:   5,
		trace:    *trace == 1,
	}
	return measure(cfg, spec.w, ".bench_build", log)
}

// measure runs the benchmark as cfg describes, checks that its end state
// repeats the one recorded under workdir, and returns the result line.
func measure(cfg config, w workload, workdir string, log io.Writer) (*result, error) {
	cfg.chunks = 8
	cfg.checkHalves = cfg.ops >= 8000
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	out, err := runBenchmark(cfg, w)
	if err != nil {
		return nil, err
	}
	if err := checkRepeat(workdir, cfg, out); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	for _, p := range out.problems {
		fmt.Fprintln(log, "check failed:", p)
	}
	u := &out.untraced
	fmt.Fprintf(log, "%s seed %d: %d timed ops in %d chunks per window (%d untraced latency samples), %d attempted, %d failed\n",
		cfg.workload, cfg.seed, u.ops+out.traced.ops, cfg.chunks, u.ops, out.attempted, out.failed)
	fmt.Fprintf(log, "setups %.3f s, warm-up %.2f s, cache flush to window end %.1f s\nuntraced chunks: %.1f KiB/op\n",
		out.setup, out.warmup.Seconds(), out.sinceFlush.Seconds(), u.chunkAlloc)
	for i, c := range u.chunks {
		fmt.Fprintf(log, "  %.0f ops/s, %.0f us/op CPU, p50 %.3f ms, p99 %.3f ms\n", c.rps(), c.cpuPerOp(), u.chunkP50[i], u.chunkP99[i])
	}

	if cfg.trace {
		t := &out.traced.stats
		fmt.Fprintf(log, "traced / untraced: cache hit ratio %.4f / %.4f, decode fast share %.4f / %.4f\n",
			t.hitRatio(), u.stats.hitRatio(), t.fastShare(), u.stats.fastShare())
	}

	res := &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		layerMetrics(res.Metrics, out)
	} else {
		endToEnd(res.Metrics, out, u)
	}
	return res, nil
}

// endToEnd fills the user-visible metrics from one window.
func endToEnd(ms map[string]metric, out *outcome, w *window) {
	ms["setup_s"] = metric{median(out.setup), "s"}
	ms["throughput_rps"] = metric{w.throughput(), "1/s"}
	ms["p50_ms"] = metric{median(w.chunkP50), "ms"}
	ms["p99_ms"] = metric{median(w.chunkP99), "ms"}
	ms["cpu_us_per_op"] = metric{w.cpuPerOp(), "us"}
	ms["alloc_kb_per_op"] = metric{w.allocPerOp(), "KiB"}
	ms["heap_mb"] = metric{out.heapMB - out.baseHeapMB, "MiB"}
}

// checkRepeat compares the run's end state with the one recorded by an
// earlier run of the same binary, workload, seed and operation counts, or
// records it if there is none.
func checkRepeat(workdir string, cfg config, out *outcome) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(workdir, "endstate")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-ops%d-warmup%d-trace%t-%s.json",
		cfg.workload, cfg.seed, cfg.ops, cfg.warmup, cfg.trace, hex.EncodeToString(sum[:8])))
	got, err := json.Marshal(out.endState)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(file)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(file, got, 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != string(got) {
		return fmt.Errorf("end state %s differs from an earlier run of the same seed: %s", got, want)
	}
	return nil
}
