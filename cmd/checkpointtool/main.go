// Command checkpointtool inspects GPU state checkpoints (see
// internal/checkpoint).
//
// A checkpoint banks the complete simulator state at a run prefix boundary —
// warmup end or a kernel boundary — so later runs sharing that prefix resume
// instead of re-simulating it. Files are self-describing: a magic line and a
// JSON header precede the checksummed binary state payload, so info answers
// from the preamble alone without decoding the state.
//
// Usage:
//
//	checkpointtool info <file>        print the header (add -state to verify
//	                                  the checksum, decode the payload and
//	                                  print the geometry, the bytes each
//	                                  section of the state takes, and each
//	                                  generator's RNG stream position)
//	checkpointtool ls   <storedir>    list every checkpoint blob in a store
//
// ls walks a simstore directory (the -checkpoint-dir of paperfigs, or a simd
// daemon's -store) and prints one line per .ckpt blob: its content address,
// snapshot cycle, boundary, size and the run it was first saved from.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "info":
		err = cmdInfo(os.Args[2:])
	case "ls":
		err = cmdLs(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "checkpointtool: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpointtool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `checkpointtool inspects GPU state checkpoints.

subcommands:
  info <file>      print a checkpoint's self-describing header
  ls   <storedir>  list the checkpoint blobs of a store directory

run "checkpointtool <subcommand> -h" for per-subcommand flags.
`)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	withState := fs.Bool("state", false, "verify the checksum, decode the state payload and print the snapshot geometry, per-section sizes and RNG stream positions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("info: expected 1 file argument, got %d", fs.NArg())
	}
	path := fs.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	hdr, err := checkpoint.ReadHeader(f)
	f.Close()
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	fmt.Printf("%s\n", path)
	fmt.Printf("  format       v%d\n", hdr.Version)
	fmt.Printf("  simulator    %s\n", hdr.SimVersion)
	if hdr.Key != "" {
		fmt.Printf("  run key      %s\n", hdr.Key)
	}
	fmt.Printf("  cycle        %d\n", hdr.Cycle)
	fmt.Printf("  boundary     %s\n", boundary(hdr.AtKernel))
	fmt.Printf("  saved        %s\n", time.Unix(hdr.SavedAtUnix, 0).UTC().Format(time.RFC3339))
	fmt.Printf("  size         %.1f KB\n", float64(fi.Size())/1024)

	if *withState {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		snap, err := checkpoint.Decode(data)
		if err != nil {
			return err
		}
		o, err := snap.State.Outline()
		if err != nil {
			return err
		}
		// Decode verifies length, checksum and section table before Outline
		// reads a section.
		fmt.Printf("  checksum     ok\n")
		payload := 0
		for _, sec := range o.Sections {
			payload += sec.Bytes
		}
		fmt.Printf("  payload      %.1f KB\n", float64(payload)/1024)
		for _, sec := range o.Sections {
			fmt.Printf("    %-10s %8.1f KB  %4.1f%%\n", sec.Name, float64(sec.Bytes)/1024, 100*float64(sec.Bytes)/float64(payload))
		}
		fmt.Printf("  llc mode     %s\n", o.Mode)
		fmt.Printf("  geometry     %d SMs, %d LLC slices, %d MCs\n", o.SMs, o.Slices, o.MCs)
		// Per-app modes are only set for multi-program runs with per-app views.
		if o.Apps > 0 {
			fmt.Printf("  programs     %d app(s)\n", o.Apps)
		}
		fmt.Printf("  reconfigs    %d (%d stall cycles)\n", o.ReconfigCount, o.StallCycles)
		// One synthetic generator per application.
		draws, err := workload.StreamPositions(o.Prog)
		if err != nil {
			return err
		}
		for app, n := range draws {
			fmt.Printf("  rng stream   generator %d at draw %d\n", app, n)
		}
	}
	return nil
}

func cmdLs(args []string) error {
	fset := flag.NewFlagSet("ls", flag.ExitOnError)
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 1 {
		fset.Usage()
		return fmt.Errorf("ls: expected 1 directory argument, got %d", fset.NArg())
	}
	dir := fset.Arg(0)

	type entry struct {
		addr  string
		hdr   checkpoint.Header
		size  int64
		broke error
	}
	var entries []entry
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".ckpt" {
			return err
		}
		e := entry{addr: strings.TrimSuffix(filepath.Base(path), ".ckpt")}
		if fi, err := d.Info(); err == nil {
			e.size = fi.Size()
		}
		f, err := os.Open(path)
		if err != nil {
			e.broke = err
		} else {
			e.hdr, e.broke = checkpoint.ReadHeader(f)
			f.Close()
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Printf("no checkpoints under %s\n", dir)
		return nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].addr < entries[j].addr })

	var total int64
	for _, e := range entries {
		if e.broke != nil {
			fmt.Printf("%-16s  unreadable: %v\n", e.addr[:min(16, len(e.addr))], e.broke)
			continue
		}
		total += e.size
		fmt.Printf("%-16s  cycle %-9d %-9s %7.1f KB  %s\n",
			e.addr[:min(16, len(e.addr))], e.hdr.Cycle, boundary(e.hdr.AtKernel),
			float64(e.size)/1024, e.hdr.Key)
	}
	fmt.Printf("%d checkpoint(s), %.1f KB\n", len(entries), float64(total)/1024)
	return nil
}

// boundary names a snapshot's prefix boundary for display.
func boundary(atKernel int) string {
	if atKernel == 0 {
		return "warmup"
	}
	return fmt.Sprintf("kernel %d", atKernel)
}
