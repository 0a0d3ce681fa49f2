package traceview

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"auditherm/internal/obs"
)

// Cross-process trace assembly. Each auditherm process writes its own
// JSONL trace under its own run ID, with span IDs that are only
// process-unique. A span whose request crossed an HTTP boundary
// carries a link (parent_run/parent_span — the caller's span as
// propagated in the X-Auditherm-Trace header). Merge loads N such
// traces and stitches them into one tree:
//
//  1. order the input traces deterministically (by run ID, then
//     start time) and assign each a process index,
//  2. namespace every span ID by its process (a fixed stride offset),
//     so IDs from different processes cannot collide,
//  3. resolve each link against the other traces' run IDs and
//     re-parent the linked span under its remote caller — the causal
//     parent outranks the process-local one in a cross-process view.
//
// The result is an ordinary *Trace (with Procs populated), so
// WriteReport and WriteChrome render merged views unchanged;
// WriteMergeReport adds the cross-process specifics: per-process
// provenance, link accounting, and a critical path that attributes
// each boundary hop to server time vs wire/queue overhead.

// MergeStats tallies link resolution over one Merge.
type MergeStats struct {
	// Resolved links re-parented a span under its remote caller.
	Resolved int
	// Unresolved links named a run or span absent from the loaded
	// traces (caller trace not supplied, or its span never exported).
	// The spans stay where their process-local tree put them.
	Unresolved int
}

// Merge stitches several single-process traces into one cross-process
// view. Input traces are not mutated. The merge is deterministic:
// identical inputs in any argument order produce an identical view.
func Merge(traces []*Trace) (*Trace, MergeStats, error) {
	var st MergeStats
	if len(traces) == 0 {
		return nil, st, fmt.Errorf("traceview: merge: no traces")
	}

	ord := append([]*Trace(nil), traces...)
	sort.SliceStable(ord, func(i, j int) bool {
		if ord[i].Meta.RunID != ord[j].Meta.RunID {
			return ord[i].Meta.RunID < ord[j].Meta.RunID
		}
		return ord[i].Meta.StartNS < ord[j].Meta.StartNS
	})

	// One stride for every process keeps remapping trivially
	// reversible: merged ID = proc*stride + original ID.
	var stride uint64
	for _, tr := range ord {
		for _, sp := range tr.Spans {
			if sp.ID > stride {
				stride = sp.ID
			}
		}
	}
	stride++

	merged := &Trace{byID: map[uint64]*Span{}}
	runToProc := make(map[string]int, len(ord))
	for i, tr := range ord {
		run := tr.Meta.RunID
		if run == "" {
			return nil, st, fmt.Errorf("traceview: merge: input trace %d (tool %q) has no run id in its meta line", i, tr.Meta.Tool)
		}
		if prev, dup := runToProc[run]; dup {
			return nil, st, fmt.Errorf("traceview: merge: run id %s appears in two traces (procs %d and %d) — merging a trace with itself?", run, prev, i)
		}
		runToProc[run] = i
		merged.Procs = append(merged.Procs, tr.Meta)
		off := uint64(i) * stride
		for _, sp := range tr.Spans {
			c := *sp
			c.ID = sp.ID + off
			if sp.Parent != 0 {
				c.Parent = sp.Parent + off
			}
			c.Proc = i
			c.Children = nil
			merged.Spans = append(merged.Spans, &c)
			merged.byID[c.ID] = &c
		}
	}

	for _, sp := range merged.Spans {
		if sp.ParentRun == "" {
			continue
		}
		proc, ok := runToProc[sp.ParentRun]
		if !ok || sp.ParentSpan == 0 {
			st.Unresolved++
			continue
		}
		p := merged.byID[uint64(proc)*stride+sp.ParentSpan]
		if p == nil {
			st.Unresolved++
			continue
		}
		sp.Parent = p.ID
		st.Resolved++
	}
	merged.link()

	// Synthesized meta so the generic renderers have something honest
	// to print; per-process provenance lives in Procs.
	runs := make([]string, len(merged.Procs))
	for i, m := range merged.Procs {
		runs[i] = m.RunID
	}
	merged.Meta = obs.TraceMeta{
		Type:       "merged",
		RunID:      strings.Join(runs, "+"),
		Tool:       fmt.Sprintf("merge(%d procs)", len(merged.Procs)),
		GoVersion:  merged.Procs[0].GoVersion,
		GoMaxProcs: merged.Procs[0].GoMaxProcs,
		NumCPU:     merged.Procs[0].NumCPU,
		Hostname:   merged.Procs[0].Hostname,
		StartNS:    merged.Procs[0].StartNS,
	}
	return merged, st, nil
}

// procTag renders a span's process prefix for merged output.
func procTag(t *Trace, s *Span) string {
	if len(t.Procs) == 0 {
		return ""
	}
	return fmt.Sprintf("[p%d] ", s.Proc)
}

// WriteMergeReport renders a merged view: per-process provenance,
// link accounting, the stitched span tree, the per-name summary and
// the cross-process critical path with wire-vs-server attribution at
// every process boundary.
func WriteMergeReport(w io.Writer, t *Trace, st MergeStats) error {
	if _, err := fmt.Fprintf(w, "merged trace: %d processes, %d spans\n", len(t.Procs), len(t.Spans)); err != nil {
		return err
	}
	for i, m := range t.Procs {
		fmt.Fprintf(w, "  p%d: run %s tool %s (%s, %d cpu", i,
			orDash(m.RunID), orDash(m.Tool), orDash(m.GoVersion), m.NumCPU)
		if m.Hostname != "" {
			fmt.Fprintf(w, ", host %s", m.Hostname)
		}
		fmt.Fprintln(w, ")")
	}
	fmt.Fprintf(w, "cross-process links: %d resolved, %d unresolved\n\n", st.Resolved, st.Unresolved)

	fmt.Fprintln(w, "# span tree")
	for _, root := range t.Roots {
		writeMergeTree(w, t, root, 0, root.Duration())
	}

	fmt.Fprintln(w, "\n# by name")
	writeSummary(w, t)

	fmt.Fprintln(w, "\n# cross-process critical path")
	writeMergeCriticalPath(w, t)
	return nil
}

// writeMergeTree is writeTree with a process tag per span and an
// explicit marker where the tree crosses a process boundary.
func writeMergeTree(w io.Writer, t *Trace, s *Span, depth int, rootDur time.Duration) {
	d := s.Duration()
	share := 100.0
	if rootDur > 0 {
		share = 100 * float64(d) / float64(rootDur)
	}
	name := procTag(t, s) + s.Name
	fmt.Fprintf(w, "%s%-*s %10s %5.1f%%", strings.Repeat("  ", depth),
		42-2*depth, name, round(d), share)
	if s.ParentRun != "" {
		fmt.Fprintf(w, "  <=%s/%d", s.ParentRun, s.ParentSpan)
	}
	if s.Error != "" {
		fmt.Fprintf(w, "  !error: %s", s.Error)
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		writeMergeTree(w, t, c, depth+1, rootDur)
	}
}

// writeMergeCriticalPath descends from the chosen root through the
// longest child at each level; at every process boundary it splits
// the parent's wall time into the server's span time and the
// remainder (wire transfer, queueing, connection setup) — the number
// that says whether a slow cross-process call is the server's fault
// or the path to it.
//
// The root is the one whose subtree touches the most processes, ties
// broken by duration. Pure duration would be wrong here: a daemon's
// root span covers its whole (mostly idle) lifetime and would always
// outrank the client run whose cross-process story the merge exists
// to tell.
func writeMergeCriticalPath(w io.Writer, t *Trace) {
	if len(t.Roots) == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	root, best := t.Roots[0], subtreeProcs(t.Roots[0])
	for _, r := range t.Roots[1:] {
		if n := subtreeProcs(r); n > best || (n == best && r.Duration() > root.Duration()) {
			root, best = r, n
		}
	}
	total := root.Duration()
	for s, depth := root, 0; s != nil; depth++ {
		share := 100.0
		if total > 0 {
			share = 100 * float64(s.Duration()) / float64(total)
		}
		fmt.Fprintf(w, "%s%s%s %s (%.1f%% of root)\n",
			strings.Repeat("  ", depth), procTag(t, s), s.Name, round(s.Duration()), share)
		var next *Span
		for _, c := range s.Children {
			if next == nil || c.Duration() > next.Duration() {
				next = c
			}
		}
		if next != nil && next.Proc != s.Proc {
			server := next.Duration()
			wire := s.Duration() - server
			if wire < 0 {
				wire = 0
			}
			pct := 0.0
			if s.Duration() > 0 {
				pct = 100 * float64(wire) / float64(s.Duration())
			}
			fmt.Fprintf(w, "%s-> crosses into p%d (run %s): server %s, wire+queue %s (%.1f%% of hop)\n",
				strings.Repeat("  ", depth+1), next.Proc, orDash(procRun(t, next.Proc)),
				round(server), round(wire), pct)
		}
		s = next
	}
}

// subtreeProcs counts the distinct processes a root's subtree spans.
func subtreeProcs(root *Span) int {
	seen := map[int]bool{}
	var walk func(s *Span)
	walk = func(s *Span) {
		seen[s.Proc] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return len(seen)
}

// procRun returns the run ID of process i in a merged view.
func procRun(t *Trace, i int) string {
	if i < 0 || i >= len(t.Procs) {
		return ""
	}
	return t.Procs[i].RunID
}
