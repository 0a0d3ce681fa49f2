package traceview

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteReport renders the loaded trace as text: run provenance, the
// flame-style span tree, a per-name summary table, and the critical
// path (the greedy longest-child descent from the slowest root).
func WriteReport(w io.Writer, t *Trace) error {
	if _, err := fmt.Fprintf(w, "trace: run %s tool %s (%s, %d cpu, gomaxprocs %d)\n",
		orDash(t.Meta.RunID), orDash(t.Meta.Tool), orDash(t.Meta.GoVersion),
		t.Meta.NumCPU, t.Meta.GoMaxProcs); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d\n\n", len(t.Spans))

	fmt.Fprintln(w, "# span tree")
	for _, root := range t.Roots {
		writeTree(w, root, 0, root.Duration())
	}

	fmt.Fprintln(w, "\n# by name")
	writeSummary(w, t)

	fmt.Fprintln(w, "\n# critical path")
	writeCriticalPath(w, t)
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// writeTree prints one span and its children, indented, with share of
// the root's wall time, attrs, counts and error status.
func writeTree(w io.Writer, s *Span, depth int, rootDur time.Duration) {
	d := s.Duration()
	share := 100.0
	if rootDur > 0 {
		share = 100 * float64(d) / float64(rootDur)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s%-*s %10s %5.1f%%", strings.Repeat("  ", depth),
		36-2*depth, s.Name, round(d), share)
	if len(s.Attrs) > 0 {
		sb.WriteString("  {")
		for i, k := range sortedKeys(s.Attrs) {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s=%s", k, attrString(s.Attrs[k]))
		}
		sb.WriteString("}")
	}
	if len(s.Counts) > 0 {
		keys := make([]string, 0, len(s.Counts))
		for k := range s.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("  [")
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s=%d", k, s.Counts[k])
		}
		sb.WriteString("]")
	}
	if s.Error != "" {
		fmt.Fprintf(&sb, "  !error: %s", s.Error)
	}
	fmt.Fprintln(w, sb.String())
	for _, e := range s.Events {
		fmt.Fprintf(w, "%s@ %-10s %s", strings.Repeat("  ", depth+1),
			round(time.Duration(e.TimeNS-s.StartNS)), e.Name)
		for _, k := range sortedKeys(e.Attrs) {
			fmt.Fprintf(w, " %s=%s", k, attrString(e.Attrs[k]))
		}
		fmt.Fprintln(w)
	}
	for _, c := range s.Children {
		writeTree(w, c, depth+1, rootDur)
	}
}

// attrString renders a decoded attribute value. JSON numbers arrive as
// float64, so integral values (artifact byte counts, worker indices)
// would otherwise print in scientific notation past 1e6.
func attrString(v any) string {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return fmt.Sprintf("%v", v)
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nameStat aggregates spans sharing a name.
type nameStat struct {
	name   string
	count  int
	total  time.Duration
	min    time.Duration
	max    time.Duration
	errs   int
	cacheH int64 // sum of cache_hit counts, when present
}

// writeSummary prints a per-name aggregate table sorted by total time.
func writeSummary(w io.Writer, t *Trace) {
	agg := map[string]*nameStat{}
	for _, s := range t.Spans {
		st := agg[s.Name]
		if st == nil {
			st = &nameStat{name: s.Name, min: s.Duration()}
			agg[s.Name] = st
		}
		d := s.Duration()
		st.count++
		st.total += d
		if d < st.min {
			st.min = d
		}
		if d > st.max {
			st.max = d
		}
		if s.Error != "" {
			st.errs++
		}
		st.cacheH += s.Counts["cache_hit"]
	}
	rows := make([]*nameStat, 0, len(agg))
	for _, st := range agg {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-36s %6s %12s %12s %12s %s\n", "name", "count", "total", "min", "max", "notes")
	for _, st := range rows {
		notes := ""
		if st.errs > 0 {
			notes = fmt.Sprintf("%d errored", st.errs)
		}
		if st.cacheH > 0 {
			if notes != "" {
				notes += ", "
			}
			notes += fmt.Sprintf("%d cache hits", st.cacheH)
		}
		fmt.Fprintf(w, "%-36s %6d %12s %12s %12s %s\n",
			st.name, st.count, round(st.total), round(st.min), round(st.max), notes)
	}
}

// writeCriticalPath descends from the slowest root through the
// longest-duration child at each level — the chain a perf effort
// should attack first.
func writeCriticalPath(w io.Writer, t *Trace) {
	if len(t.Roots) == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	root := t.Roots[0]
	for _, r := range t.Roots[1:] {
		if r.Duration() > root.Duration() {
			root = r
		}
	}
	total := root.Duration()
	for s, depth := root, 0; s != nil; depth++ {
		share := 100.0
		if total > 0 {
			share = 100 * float64(s.Duration()) / float64(total)
		}
		fmt.Fprintf(w, "%s%s %s (%.1f%% of root)\n",
			strings.Repeat("  ", depth), s.Name, round(s.Duration()), share)
		var next *Span
		for _, c := range s.Children {
			if next == nil || c.Duration() > next.Duration() {
				next = c
			}
		}
		s = next
	}
}

// round trims a duration for display.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	}
	return d
}
