// Command cminor dumps the front-end stages for a CMinor source file:
// tokens, the instruction stream of the IR (the Phoenix-IR shape of
// the paper's Section 5.1), or the resolved call graph.
//
// Usage:
//
//	cminor -dump tokens|ir|callgraph [-entry main] file.c...
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/callgraph"
	"repro/internal/cminor"
	"repro/internal/ir"
)

func main() {
	dump := flag.String("dump", "ir", "what to dump: tokens, ir, or callgraph")
	entry := flag.String("entry", "main", "entry function for the call graph")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "cminor: no input files")
		os.Exit(2)
	}

	var files []*cminor.File
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		if *dump == "tokens" {
			lx := cminor.NewLexer(path, string(src))
			for {
				t := lx.Next()
				fmt.Printf("%s\t%s\n", cminor.FilePos{File: path, Pos: t.Pos}, lx.Describe(t))
				if t.Kind == cminor.EOF {
					break
				}
			}
			reportErrors(lx.Errors())
			continue
		}
		f, errs := cminor.Parse(path, string(src))
		reportErrors(errs)
		files = append(files, f)
	}
	if *dump == "tokens" {
		return
	}

	info := cminor.Check(files...)
	reportErrors(info.Errors)
	prog := ir.Lower(info, files...)

	switch *dump {
	case "ir":
		for _, name := range prog.FuncNames() {
			fmt.Print(prog.Funcs[name].Dump())
			fmt.Println()
		}
	case "callgraph":
		g := callgraph.Build(prog, *entry, nil)
		for _, fn := range g.ReachableFuncs() {
			fmt.Printf("%s:\n", fn)
			for _, in := range g.Prog.Funcs[fn].Instrs() {
				if in.Op != ir.Call {
					continue
				}
				for _, callee := range g.Edges[in.ID] {
					fmt.Printf("  %s -> %s\n", in.Pos(), callee)
				}
				for _, ext := range g.ExternCalls[in.ID] {
					fmt.Printf("  %s -> %s (extern)\n", in.Pos(), ext)
				}
			}
		}
	default:
		fail("unknown -dump %q", *dump)
	}
}

func reportErrors(errs []*cminor.Error) {
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cminor: "+format+"\n", args...)
	os.Exit(1)
}
