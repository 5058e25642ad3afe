// Command dsmvet runs the dsmvet static-analysis suite — the machine checks
// behind the simulator's determinism and virtual-time invariants (DESIGN.md
// "Machine-checked invariants") — over packages of this module.
//
// Usage:
//
//	go run ./cmd/dsmvet [flags] [packages]
//
// Packages default to ./... (the whole module). Each analyzer can be
// disabled individually, e.g. -maporder=false. Exit status: 0 clean, 1 when
// any diagnostic is reported, 2 on a loading or internal error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	all := analysis.Analyzers()
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dsmvet [flags] [packages]\n\nAnalyzers (all on by default):\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var run []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}

	loader, err := analysis.NewModuleLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmvet:", err)
		os.Exit(2)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
