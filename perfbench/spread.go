package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// printSpread reads saved run outputs and prints, per metric, the median
// and the quartile spread over the runs: the steadiness check a metric's
// bound is judged against. Every line of the files that parses as a
// result line counts as one run.
func printSpread(w io.Writer, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("spread: no result files given")
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, name := range files {
		if err := readResults(name, values, units); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %4s %14s %14s %14s %8s\n", "metric", "runs", "q1", "median", "q3", "spread")
	for _, n := range names {
		xs := values[n]
		q1, q2, q3, ok := quartiles(xs)
		if !ok {
			fmt.Fprintf(w, "%-34s %4d %14s %14.4f %14s %8s %s\n", n, len(xs), "-", median(xs), "-", "-", units[n])
			continue
		}
		s, _ := spread(xs)
		fmt.Fprintf(w, "%-34s %4d %14.4f %14.4f %14.4f %8.4f %s\n", n, len(xs), q1, q2, q3, s, units[n])
	}
	return nil
}

func readResults(name string, values map[string][]float64, units map[string]string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var res struct {
			Metrics map[string]jsonMetric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
			continue // not a result line
		}
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}
	return sc.Err()
}
