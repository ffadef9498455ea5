// Command powerschedlint runs the powersched contract-linting suite
// (internal/analysis/suite) over Go packages: five analyzers, detrand,
// nopaniccost, faultfsonly, netfaultonly and errsentinel (README
// "Static analysis" says what each enforces). It runs two ways:
//
// Standalone, against package patterns, type-checking from source:
//
//	go run ./cmd/powerschedlint ./...
//
// As a go vet tool, where the go command hands it one compiled package
// at a time via a vet.cfg file and export data:
//
//	go build -o bin/powerschedlint ./cmd/powerschedlint
//	go vet -vettool=$(pwd)/bin/powerschedlint ./...
//
// The vet protocol (mirrored from cmd/go): the tool must answer
// `-V=full` with "<name> version <version>", answer `-flags` with a
// JSON array of its flags, and otherwise expects its last argument to
// be a *.cfg file describing the package. Diagnostics go to stderr and
// exit code 2 marks findings, matching the unitchecker convention.
package main

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

const version = "powerschedlint version v0.8.0"

func main() {
	args := os.Args[1:]

	// Protocol handshakes from `go vet`.
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V="):
			fmt.Println(version)
			return
		case args[0] == "-flags":
			// No tool-specific flags: the suite always runs whole.
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(vetUnit(args[0]))
		}
	}

	os.Exit(standalone(args))
}

// standalone lints the packages matching the given patterns (default
// ./...) from source. Exit 1 reports findings.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerschedlint:", err)
		return 3
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.LoadPatterns(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerschedlint:", err)
		return 3
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, suite.Analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "powerschedlint: %s: %v\n", pkg.ImportPath, err)
			return 3
		}
		for _, d := range diags {
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "powerschedlint: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// vetConfig is the package description cmd/go writes for -vettool
// tools (the fields this tool consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

// vetUnit analyzes one compiled package as described by a vet.cfg file,
// resolving imports through the export data cmd/go already built.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerschedlint:", err)
		return 3
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "powerschedlint: parsing %s: %v\n", cfgPath, err)
		return 3
	}

	// Facts output: this suite exports none, but cmd/go caches the file.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			_ = os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}

	// Import resolution: source import path -> canonical path (vendoring,
	// test variants) -> export data file.
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}

	fset := token.NewFileSet()
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	loader := analysis.NewLoaderWith(fset, importer.ForCompiler(fset, compiler, lookup))

	files := make([]string, 0, len(cfg.GoFiles))
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 || cfg.VetxOnly {
		// Pure test variants have nothing the suite checks; fact-only
		// requests have no facts to compute.
		writeVetx()
		return 0
	}

	pkg, err := loader.LoadFiles(cfg.Dir, cfg.ImportPath, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "powerschedlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := analysis.Run(pkg, suite.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "powerschedlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	writeVetx()
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
