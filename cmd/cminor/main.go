// Command cminor dumps the front-end stages for a CMinor source file:
// tokens, the instruction stream of the IR (the Phoenix-IR shape of
// the paper's Section 5.1), or the resolved call graph.
//
// Usage:
//
//	cminor -dump tokens|ir|callgraph [-entry main] file.c...
//
// Exit codes: 0 success, 1 unreadable input or front-end errors,
// 2 usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/ir"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the dump to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cminor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dump := fs.String("dump", "ir", "what to dump: tokens, ir, or callgraph")
	entry := fs.String("entry", "main", "entry function for the call graph")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch *dump {
	case "tokens", "ir", "callgraph":
	default:
		fmt.Fprintf(stderr, "cminor: unknown -dump %q\n", *dump)
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "cminor: no input files")
		fs.Usage()
		return 2
	}
	// failed prints front-end diagnostics and reports whether there
	// were any.
	failed := func(errs []*cminor.Error) bool {
		for _, e := range errs {
			fmt.Fprintln(stderr, e)
		}
		return len(errs) > 0
	}

	var files []*cminor.File
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "cminor: %v\n", err)
			return 1
		}
		if *dump == "tokens" {
			lx := cminor.NewLexer(path, string(src))
			for {
				t := lx.Next()
				fmt.Fprintf(stdout, "%s\t%s\n", cminor.FilePos{File: path, Pos: t.Pos}, lx.Describe(t))
				if t.Kind == cminor.EOF {
					break
				}
			}
			if failed(lx.Errors()) {
				return 1
			}
			continue
		}
		f, errs := cminor.Parse(path, string(src))
		if failed(errs) {
			return 1
		}
		files = append(files, f)
	}
	if *dump == "tokens" {
		return 0
	}

	info := cminor.Check(files...)
	if failed(info.Errors) {
		return 1
	}
	prog := ir.Lower(info, files...)

	if *dump == "ir" {
		for _, name := range prog.FuncNames() {
			fmt.Fprint(stdout, prog.Funcs[name].Dump())
			fmt.Fprintln(stdout)
		}
		return 0
	}
	g := callgraph.Build(prog, *entry, nil)
	for _, fn := range g.ReachableFuncs() {
		fmt.Fprintf(stdout, "%s:\n", fn)
		for _, in := range g.Prog.Funcs[fn].Instrs() {
			if in.Op != ir.Call {
				continue
			}
			for _, callee := range g.Edges[in.ID] {
				fmt.Fprintf(stdout, "  %s -> %s\n", in.Pos(), callee)
			}
			for _, ext := range g.ExternCalls[in.ID] {
				fmt.Fprintf(stdout, "  %s -> %s (extern)\n", in.Pos(), ext)
			}
		}
	}
	return 0
}
