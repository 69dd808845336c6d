// Command fllint runs the repro's invariant analyzers (determinism,
// poolescape, nanjson, telemetryclock, zerodep — see internal/analysis)
// over Go packages.
//
// Standalone:
//
//	go run ./cmd/fllint ./...             # whole repo, all analyzers
//	go run ./cmd/fllint -checks nanjson ./internal/experiment
//
// As a go vet tool (unitchecker-compatible driver protocol):
//
//	go build -o /tmp/fllint ./cmd/fllint
//	go vet -vettool=/tmp/fllint ./...
//
// Exit status is 0 when no violations are found, 1 otherwise. A deliberate
// violation is exempted in place with //lint:allow <analyzer> <reason>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	// The go vet driver probes tools with -V=full before handing them a
	// .cfg file; answer both before normal flag parsing so the same binary
	// serves standalone and -vettool use.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		fmt.Printf("%s version fllint-v1\n", os.Args[0])
		return
	}
	// The driver's second probe: -flags must print a JSON description of
	// the tool's flags so cmd/go can validate pass-through vet flags.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		out, _ := json.Marshal([]jsonFlag{
			{Name: "checks", Bool: false, Usage: "comma-separated analyzer subset (default: all)"},
			{Name: "json", Bool: true, Usage: "emit diagnostics as JSON"},
		})
		fmt.Printf("%s\n", out)
		return
	}
	checks := flag.String("checks", "", "comma-separated analyzer subset (default: all)")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON")
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fatal(err)
	}
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, fset, err := runVetUnit(args[0], analyzers)
		if err != nil {
			fatal(err)
		}
		// The vet driver surfaces the tool's stderr on nonzero exit.
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(cwd, args...)
	if err != nil {
		fatal(err)
	}
	diags := analysis.Run(pkgs, analyzers)
	if *asJSON {
		type jsonDiag struct {
			Position string `json:"position"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			var pos string
			if len(pkgs) > 0 {
				pos = pkgs[0].Fset.Position(d.Pos).String()
			}
			out[i] = jsonDiag{Position: pos, Analyzer: d.Analyzer, Message: d.Message}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fllint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fllint [-checks a,b] [-json] [packages...]

fllint machine-checks the repro's reproducibility invariants. Analyzers:

`)
	for _, a := range analysis.All() {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
	}
	fmt.Fprintf(os.Stderr, "\nFlags:\n")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fllint:", err)
	os.Exit(2)
}
