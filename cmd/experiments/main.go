// Command experiments regenerates the thesis-validation tables E1–E17 and
// ablations A1–A4 (see DESIGN.md §2 for the index — ids are frozen — and
// EXPERIMENTS.md for recorded output).
//
// Usage:
//
//	experiments [-seed N] [-quick] [-exp E1,E6,A3] [-list]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The profile flags wrap the selected experiments in runtime/pprof
// collection, so `experiments -exp E2 -cpuprofile cpu.pprof` followed by
// `go tool pprof cpu.pprof` answers "where does E2 spend its time" on
// the real workload instead of a synthetic benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 42, "base RNG seed (runs are deterministic per seed)")
	quick := flag.Bool("quick", false, "smaller sweeps and trial counts")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var ids []string
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	if err := experiments.RunAll(os.Stdout, cfg, ids); err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the live heap so the profile shows retention, not garbage
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}
