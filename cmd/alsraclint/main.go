// Command alsraclint runs the repository's custom static-analysis suite
// (package internal/analysis): the per-function rules determinism,
// concurrency and tailmask, plus the interprocedural rules allocflow, leaks,
// ctxflow and errwrap built on the shared dataflow engine. It is stdlib-only
// — no golang.org/x/tools — and loads the whole module with a lenient
// from-source type check exactly once, however many rules run.
//
// Usage:
//
//	alsraclint [-C dir] [-list] [-rule a,b,...] [-json] [-github] [patterns...]
//
// Patterns are accepted for command-line symmetry with go vet (./... is the
// conventional spelling) but the tool always analyzes the full module rooted
// at dir (default: the current directory, walking up to the nearest go.mod).
// -rule restricts the run to a comma-separated subset of analyzers. Output is
// "file:line:col: [rule] message" by default, one JSON object per finding
// with -json, or GitHub workflow annotations (::error ...) with -github. The
// exit status is 1 when any diagnostic was reported, 2 on usage or load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	dir := flag.String("C", "", "module directory (default: nearest go.mod above the working directory)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	rules := flag.String("rule", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON Lines on stdout")
	github := flag.Bool("github", false, "emit findings as GitHub workflow ::error annotations")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.Analyzers()
	if *rules != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a := analysis.AnalyzerByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "alsraclint: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fmt.Fprintln(os.Stderr, "alsraclint: -rule selected no analyzers")
			os.Exit(2)
		}
	}

	root := *dir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		switch {
		case *jsonOut:
			if err := enc.Encode(jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "alsraclint:", err)
				os.Exit(2)
			}
		case *github:
			// GitHub annotation properties take %,\r\n escaped as URL-style
			// sequences; file paths are repo-relative in CI checkouts.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=alsraclint/%s::%s\n",
				relTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule,
				annotationEscape(d.Message))
		default:
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "alsraclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the stable machine-readable finding shape for -json.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// relTo makes the path relative to the module root when possible, which is
// the form GitHub's annotation matcher expects in an actions checkout.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// annotationEscape encodes the characters the workflow-command parser treats
// specially in annotation messages.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("alsraclint: no go.mod found above the working directory")
		}
		dir = parent
	}
}
