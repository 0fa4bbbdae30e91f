// Command benchjson reduces `go test -bench` text output to a JSON
// document, so the performance trajectory of the repository is machine
// readable across PRs. It reads the benchmark output on stdin and writes a
// JSON report to -o (default stdout):
//
//	go test -run '^$' -bench . -count 10 -benchmem . | benchjson -o BENCH.json
//
// Result lines that share a package and a full benchmark name (sub-benchmark
// path and -cpu suffix included) are repeats of one benchmark, as -count
// produces. Each benchmark is reported once, in first-seen order, with the
// median and quartiles over its repeats of every metric the framework
// emitted, keyed by unit: ns/op, B/op, allocs/op, MB/s and any custom
// b.ReportMetric unit alike.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark reduced over its repeats.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// -cpu suffix, e.g. "BenchmarkFigure1_Ladder/loopback-8".
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Samples is the number of result lines reduced (the -count).
	Samples int `json:"samples"`
	// Metrics maps unit to the spread of its values over the samples.
	Metrics map[string]Spread `json:"metrics"`

	values map[string][]float64
}

// Spread is the median and quartiles of one metric's samples, by linear
// interpolation between order statistics (at rank p·(n−1) for p = ¼, ½,
// ¾). One sample gives three equal numbers.
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Report is the whole reduced run.
type Report struct {
	Goos       string       `json:"goos,omitempty"`
	Goarch     string       `json:"goarch,omitempty"`
	CPU        string       `json:"cpu,omitempty"`
	Benchmarks []*Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

func parse(sc *bufio.Scanner) (*Report, error) {
	r := &Report{Benchmarks: []*Benchmark{}}
	byKey := map[string]*Benchmark{}
	var pkg string
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		key, value, _ := strings.Cut(line, ":")
		value = strings.TrimSpace(value)
		switch {
		case key == "goos":
			r.Goos = value
		case key == "goarch":
			r.Goarch = value
		case key == "cpu":
			r.CPU = value
		case key == "pkg":
			pkg = value
		case strings.HasPrefix(line, "Benchmark"):
			name, metrics, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b := byKey[pkg+" "+name]
			if b == nil {
				b = &Benchmark{Name: name, Pkg: pkg, values: map[string][]float64{}}
				byKey[pkg+" "+name] = b
				r.Benchmarks = append(r.Benchmarks, b)
			}
			b.Samples++
			for unit, v := range metrics {
				b.values[unit] = append(b.values[unit], v)
			}
		}
	}
	for _, b := range r.Benchmarks {
		b.Metrics = make(map[string]Spread, len(b.values))
		for unit, vs := range b.values {
			sort.Float64s(vs)
			b.Metrics[unit] = Spread{Median: quantile(vs, 0.5), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75)}
		}
	}
	return r, sc.Err()
}

// quantile interpolates the p-quantile of the sorted, non-empty vs.
func quantile(vs []float64, p float64) float64 {
	pos := p * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[i]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   43238   26633 ns/op   5816 B/op   104 allocs/op
//
// Metrics are (value, unit) pairs after the run count.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, false
	}
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	return fields[0], metrics, true
}
