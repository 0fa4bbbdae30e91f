package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

// TestReduce pins the reduction of repeated result lines: one entry per
// package and full name in first-seen order, -cpu suffixes kept apart,
// every unit (custom b.ReportMetric ones included) reduced to its median
// and quartiles, and lines that are not results skipped.
func TestReduce(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []*Benchmark
	}{
		{
			name: "repeats",
			in: `pkg: repro
BenchmarkLadder/direct-2   100   40 ns/op   8 B/op
BenchmarkLadder/direct-2   100   10 ns/op   8 B/op
BenchmarkLadder/direct-2   100   30 ns/op   8 B/op
BenchmarkLadder/direct-2   100   20 ns/op   8 B/op
BenchmarkLadder/direct-2   100   50 ns/op   8 B/op
`,
			want: []*Benchmark{{Name: "BenchmarkLadder/direct-2", Pkg: "repro", Samples: 5, Metrics: map[string]Spread{
				"ns/op": {Median: 30, Q1: 20, Q3: 40},
				"B/op":  {Median: 8, Q1: 8, Q3: 8},
			}}},
		},
		{
			name: "interpolated quartiles",
			in: `BenchmarkX 1 1 ns/op
BenchmarkX 1 2 ns/op
BenchmarkX 1 3 ns/op
BenchmarkX 1 4 ns/op
`,
			want: []*Benchmark{{Name: "BenchmarkX", Samples: 4, Metrics: map[string]Spread{
				"ns/op": {Median: 2.5, Q1: 1.75, Q3: 3.25},
			}}},
		},
		{
			name: "cpu suffixes stay apart",
			in: `BenchmarkP/loopback     10  1200 ns/op
BenchmarkP/loopback-4   10   400 ns/op
BenchmarkP/loopback     10  1000 ns/op
BenchmarkP/loopback-4   10   600 ns/op
`,
			want: []*Benchmark{
				{Name: "BenchmarkP/loopback", Samples: 2, Metrics: map[string]Spread{
					"ns/op": {Median: 1100, Q1: 1050, Q3: 1150},
				}},
				{Name: "BenchmarkP/loopback-4", Samples: 2, Metrics: map[string]Spread{
					"ns/op": {Median: 500, Q1: 450, Q3: 550},
				}},
			},
		},
		{
			name: "custom units",
			in: `BenchmarkW/p=4-2   7728   33486 ns/op   8.000 writers   2395 B/op   34 allocs/op
BenchmarkS/1MB-2   10   5000 ns/op   209.72 MB/s   3.5 ns/job
`,
			want: []*Benchmark{
				{Name: "BenchmarkW/p=4-2", Samples: 1, Metrics: map[string]Spread{
					"ns/op":     {Median: 33486, Q1: 33486, Q3: 33486},
					"writers":   {Median: 8, Q1: 8, Q3: 8},
					"B/op":      {Median: 2395, Q1: 2395, Q3: 2395},
					"allocs/op": {Median: 34, Q1: 34, Q3: 34},
				}},
				{Name: "BenchmarkS/1MB-2", Samples: 1, Metrics: map[string]Spread{
					"ns/op":  {Median: 5000, Q1: 5000, Q3: 5000},
					"MB/s":   {Median: 209.72, Q1: 209.72, Q3: 209.72},
					"ns/job": {Median: 3.5, Q1: 3.5, Q3: 3.5},
				}},
			},
		},
		{
			name: "packages stay apart, noise skipped",
			in: `pkg: repro/a
BenchmarkX-2
    bench_test.go:10: a log line
BenchmarkX-2   1   7 ns/op
--- FAIL: BenchmarkY
pkg: repro/b
BenchmarkX-2   1   9 ns/op
PASS
`,
			want: []*Benchmark{
				{Name: "BenchmarkX-2", Pkg: "repro/a", Samples: 1, Metrics: map[string]Spread{
					"ns/op": {Median: 7, Q1: 7, Q3: 7},
				}},
				{Name: "BenchmarkX-2", Pkg: "repro/b", Samples: 1, Metrics: map[string]Spread{
					"ns/op": {Median: 9, Q1: 9, Q3: 9},
				}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parse(bufio.NewScanner(strings.NewReader(tc.in)))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range r.Benchmarks {
				b.values = nil
			}
			if !reflect.DeepEqual(r.Benchmarks, tc.want) {
				for i, b := range r.Benchmarks {
					t.Logf("got[%d] = %+v", i, *b)
				}
				t.Fatalf("want %d benchmarks as listed", len(tc.want))
			}
		})
	}
}

// TestReportHeader keeps the host lines the report carries.
func TestReportHeader(t *testing.T) {
	in := "goos: linux\ngoarch: amd64\ncpu: Intel(R) Xeon(R) Processor\n"
	r, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Goos != "linux" || r.Goarch != "amd64" || r.CPU != "Intel(R) Xeon(R) Processor" || len(r.Benchmarks) != 0 {
		t.Fatalf("report = %+v", r)
	}
}
