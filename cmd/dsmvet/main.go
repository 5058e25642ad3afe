// Command dsmvet runs the dsmvet static-analysis suite — the machine checks
// behind the simulator's determinism and virtual-time invariants (DESIGN.md
// "Machine-checked invariants") — over packages of this module.
//
// Usage:
//
//	go run ./cmd/dsmvet [packages]
//
// Packages default to ./... (the whole module); every analyzer runs. Exit
// status: 0 clean, 1 when any diagnostic is reported, 2 on a loading or
// internal error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	analyzers := analysis.Analyzers()
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: dsmvet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(out, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
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
	diags, err := analysis.Run(pkgs, analyzers)
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
