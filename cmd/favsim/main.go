// Command favsim assembles and executes fav32 programs on the
// deterministic simulator, for debugging benchmarks and inspecting golden
// runs.
//
// Usage:
//
//	favsim [flags] <benchmark | file.s>
//
// The positional argument is either a registered benchmark name (hi,
// bin_sem2, sync2, mbox1, clock1, preempt1, sort1) or a path to a fav32
// assembly file. Registered benchmarks can be run in any hardening
// variant; file programs must not use pld/pst and run as-is.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"faultspace"
	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "favsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("favsim", flag.ContinueOnError)
	var (
		variant   = fs.String("variant", "baseline", progs.VariantUsage)
		disasm    = fs.Bool("disasm", false, "print the disassembled program before running")
		dumpTrace = fs.Bool("trace", false, "print the memory-access trace")
		maxCycles = fs.Uint64("max-cycles", 1<<22, "cycle budget for the run")
		sizes     progs.Sizes
	)
	sizes.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected one benchmark name or assembly file")
	}

	prog, err := progs.Load(fs.Arg(0), *variant, sizes)
	if err != nil {
		return err
	}

	if *disasm {
		fmt.Fprintf(w, "; %s — %d instructions, %d bytes RAM, %d bytes data image\n",
			prog.Name, len(prog.Code), prog.RAMSize, len(prog.Image))
		fmt.Fprint(w, isa.Disassemble(prog.Code))
		fmt.Fprintln(w)
	}

	golden, err := trace.Record(prog.Name, faultspace.MachineConfig(prog),
		prog.Code, prog.Image, *maxCycles)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "program : %s\n", prog.Name)
	fmt.Fprintf(w, "status  : halted\n")
	fmt.Fprintf(w, "cycles  : %d (Δt)\n", golden.Cycles)
	fmt.Fprintf(w, "memory  : %d bytes = %d bits (Δm)\n", prog.RAMSize, golden.RAMBits)
	fmt.Fprintf(w, "space   : %d coordinates (w = Δt·Δm)\n", golden.SpaceSize())
	fmt.Fprintf(w, "accesses: %d RAM accesses traced\n", len(golden.Accesses))
	fmt.Fprintf(w, "output  : %q\n", golden.Serial)
	if golden.Detects+golden.Corrects > 0 {
		fmt.Fprintf(w, "signals : %d detections, %d corrections during the golden run\n",
			golden.Detects, golden.Corrects)
	}

	if *dumpTrace {
		fmt.Fprintln(w, "\ncycle  kind   addr  size")
		for _, a := range golden.Accesses {
			kind := "read "
			if a.Kind == machine.AccessWrite {
				kind = "write"
			}
			fmt.Fprintf(w, "%5d  %s  %#04x  %d\n", a.Cycle, kind, a.Addr, a.Size)
		}
	}
	return nil
}
