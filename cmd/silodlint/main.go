// Command silodlint runs SiloD's project-specific static-analysis
// suite (internal/lint) over the module and exits non-zero on any
// finding not covered by the allowlist. It is part of the pre-merge
// gate: `make lint` / `make verify`.
//
// Usage:
//
//	silodlint [-root dir] [-allow file] [-list] [-json] [-v]
//
// Diagnostics print one per line as
//
//	path/to/file.go:line:col: analyzer: message
//
// with paths relative to the module root, the same shape lint.allow
// rules match against. With -json each finding is instead one JSON
// object per line ({"path","line","col","analyzer","message"}), for
// editor and CI integrations. See docs/static-analysis.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire shape: one object per line, stable
// field names for editor and CI consumers.
type jsonDiagnostic struct {
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run executes the CLI; it returns the process exit code (0 clean,
// 1 findings, 2 usage or load failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("silodlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root to lint (directory containing go.mod)")
	allowPath := fs.String("allow", "", "allowlist file (default: <root>/lint.allow if present)")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as one JSON object per line")
	verbose := fs.Bool("v", false, "print load/run statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	file := *allowPath
	if file == "" {
		file = filepath.Join(*root, "lint.allow")
	}
	allow, err := lint.ParseAllowFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "silodlint: %v\n", err)
		return 2
	}

	start := time.Now()
	res, err := lint.Run(*root)
	if err != nil {
		fmt.Fprintf(stderr, "silodlint: %v\n", err)
		return 2
	}
	if *verbose {
		fmt.Fprintf(stderr, "silodlint: %d packages, %d raw finding(s) in %v\n",
			res.Packages, len(res.Diagnostics), time.Since(start).Round(time.Millisecond))
	}

	enc := json.NewEncoder(stdout)
	var findings int
	for _, d := range res.Diagnostics {
		if allow.Allows(d) {
			if *verbose {
				fmt.Fprintf(stderr, "silodlint: allowed: %s\n", d)
			}
			continue
		}
		findings++
		if *jsonOut {
			if err := enc.Encode(jsonDiagnostic{
				Path:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintf(stderr, "silodlint: %v\n", err)
				return 2
			}
			continue
		}
		fmt.Fprintln(stdout, d.String())
	}
	for _, r := range allow.Unused() {
		fmt.Fprintf(stderr, "silodlint: stale allow rule (matched nothing): %s: %s %s\n", r.Source, r.Analyzer, r.Path)
	}
	bad := allow.Unjustified()
	for _, r := range bad {
		fmt.Fprintf(stderr, "silodlint: allow rule without a justification comment: %s: %s %s\n", r.Source, r.Analyzer, r.Path)
	}
	if findings > 0 || len(bad) > 0 {
		if findings > 0 {
			fmt.Fprintf(stderr, "silodlint: %d finding(s)\n", findings)
		}
		return 1
	}
	return 0
}
