// Command tracetool is the offline observatory over auditherm's run
// artifacts: it renders -trace JSONL span files as text reports or
// Chrome trace_event JSON, stitches traces from several processes into
// one cross-process tree via their X-Auditherm-Trace links, and diffs
// the stage timings of two runs (traces or manifests).
//
// Usage:
//
//	tracetool report <trace.jsonl>...
//	tracetool chrome [-o out.json] <trace.jsonl>...
//	tracetool merge [-chrome out.json] <trace.jsonl> <trace.jsonl>...
//	tracetool diff <runA> <runB>          (trace or manifest each)
//
// report and chrome accept several trace files and merge them first;
// merge always renders the cross-process report (per-process
// provenance, link accounting, wire-vs-server critical path).
package main

import (
	"flag"
	"fmt"
	"os"

	"auditherm/internal/traceview"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = report(os.Args[2:])
	case "chrome":
		err = chrome(os.Args[2:])
	case "merge":
		err = merge(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracetool report <trace.jsonl>...        flame report, per-stage summary, critical path
  tracetool chrome [-o f] <trace.jsonl>... convert to Chrome trace_event JSON (Perfetto)
  tracetool merge [flags] <trace.jsonl>... stitch multi-process traces by their links
  tracetool diff <runA> <runB>             stage-level wall-time diff (trace or manifest)

report and chrome accept several trace files and merge them first.`)
}

// loadTraces reads every path; with more than one it merges them into
// a single cross-process view (single files pass through untouched, so
// the classic one-trace commands behave exactly as before).
func loadTraces(paths []string) (*traceview.Trace, traceview.MergeStats, error) {
	var st traceview.MergeStats
	traces := make([]*traceview.Trace, 0, len(paths))
	for _, p := range paths {
		tr, err := traceview.ReadTraceFile(p)
		if err != nil {
			return nil, st, err
		}
		traces = append(traces, tr)
	}
	if len(traces) == 1 {
		return traces[0], st, nil
	}
	return traceview.Merge(traces)
}

func report(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("report: want at least one trace file")
	}
	tr, st, err := loadTraces(fs.Args())
	if err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return traceview.WriteMergeReport(os.Stdout, tr, st)
	}
	return traceview.WriteReport(os.Stdout, tr)
}

func chrome(args []string) error {
	fs := flag.NewFlagSet("chrome", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("chrome: want at least one trace file")
	}
	tr, _, err := loadTraces(fs.Args())
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return traceview.WriteChrome(w, tr)
}

// merge stitches two or more single-process traces into one
// cross-process tree and renders the merge report; -chrome also emits
// the merged Chrome trace_event JSON (one pid per source process).
func merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	chromeOut := fs.String("chrome", "", "also write merged Chrome trace_event JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("merge: want at least two trace files, got %d", fs.NArg())
	}
	traces := make([]*traceview.Trace, 0, fs.NArg())
	for _, p := range fs.Args() {
		tr, err := traceview.ReadTraceFile(p)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	m, st, err := traceview.Merge(traces)
	if err != nil {
		return err
	}
	if err := traceview.WriteMergeReport(os.Stdout, m, st); err != nil {
		return err
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		return traceview.WriteChrome(f, m)
	}
	return nil
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want two run files (trace or manifest), got %d args", fs.NArg())
	}
	a, err := traceview.LoadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := traceview.LoadRun(fs.Arg(1))
	if err != nil {
		return err
	}
	return traceview.WriteDiff(os.Stdout, a, b)
}
