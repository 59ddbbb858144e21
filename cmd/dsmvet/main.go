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
//
// With -json, stdout carries the diagnostics as a machine-readable report and
// the human-readable diagnostics go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

// jsonReport is the -json output schema.
type jsonReport struct {
	Schema      int        `json:"schema"`
	Diagnostics []jsonDiag `json:"diagnostics"`
}

type jsonDiag struct {
	Pos      string `json:"pos"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	all := analysis.Analyzers()
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
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

	if *jsonOut {
		out := jsonReport{Schema: 2, Diagnostics: []jsonDiag{}}
		for _, d := range diags {
			out.Diagnostics = append(out.Diagnostics, jsonDiag{
				Pos:      d.Pos.String(),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			fmt.Fprintln(os.Stderr, d)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dsmvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
