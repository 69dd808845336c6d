package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"

	"repro/internal/analysis"
)

// vetConfig is the package description the go vet driver hands a -vettool
// in a .cfg file (cmd/go's vet protocol). Only the fields fllint needs are
// decoded.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one package under the go vet driver protocol: the
// cfg file carries the package's source files and the export-data table
// for its imports — the same substrate the standalone loader builds with
// `go list -export`.
func runVetUnit(cfgPath string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, *token.FileSet, error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, nil, fmt.Errorf("fllint: vet cfg %s: %w", cfgPath, err)
	}
	// fllint computes no cross-package facts, but the driver requires the
	// output file to exist; write it before any early return.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, token.NewFileSet(), nil
	}
	pkg, err := analysis.CheckFiles(cfg.ImportPath, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, token.NewFileSet(), nil
		}
		return nil, nil, err
	}
	return analysis.Run([]*analysis.Package{pkg}, analyzers), pkg.Fset, nil
}
