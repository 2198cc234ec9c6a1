package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition is a strict parser for the Prometheus text
// exposition format (0.0.4) as this package emits it. It enforces more
// than a scrape-tolerant parser would: families must be grouped (all
// lines of a family contiguous), every sample must belong to a declared
// `# TYPE`, label syntax and escaping must be exact, histogram buckets
// must be cumulative with a `+Inf` bucket equal to `_count`, and the
// only comments allowed are `# HELP`, `# TYPE`, and this package's
// `# EXEMPLAR <family> trace_id="<id>" <value>` annotation (which must
// name a declared histogram). TestMetricsExpositionFormat and the fleet
// exposition tests in internal/server run scrapes through it so a
// malformed family name or label can never ship.
func ValidateExposition(r io.Reader) error {
	type histSeries struct {
		lastLe  float64
		cum     int64
		sawInf  bool
		infCum  int64
		count   int64
		sawCnt  bool
		sawSum  bool
		buckets int
	}
	type familyState struct {
		typ    string
		help   bool
		closed bool
		hist   map[string]*histSeries
	}
	fams := make(map[string]*familyState)
	current := "" // family whose samples we are inside, "" at start

	closeFamily := func(name string) error {
		st := fams[name]
		if st == nil || st.closed {
			return nil
		}
		st.closed = true
		if st.typ != "histogram" {
			return nil
		}
		keys := make([]string, 0, len(st.hist))
		for k := range st.hist {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hs := st.hist[k]
			if hs.buckets == 0 {
				return fmt.Errorf("obs: histogram %s%s has no _bucket samples", name, k)
			}
			if !hs.sawInf {
				return fmt.Errorf("obs: histogram %s%s missing le=\"+Inf\" bucket", name, k)
			}
			if !hs.sawSum {
				return fmt.Errorf("obs: histogram %s%s missing _sum", name, k)
			}
			if !hs.sawCnt {
				return fmt.Errorf("obs: histogram %s%s missing _count", name, k)
			}
			if hs.count != hs.infCum {
				return fmt.Errorf("obs: histogram %s%s _count %d != +Inf bucket %d", name, k, hs.count, hs.infCum)
			}
		}
		return nil
	}
	// enter moves the sample cursor to family name, closing the previous
	// family and rejecting a return to one already closed (interleaving).
	enter := func(name string) error {
		if current == name {
			return nil
		}
		if current != "" {
			if err := closeFamily(current); err != nil {
				return err
			}
		}
		st := fams[name]
		if st == nil {
			return fmt.Errorf("obs: sample for %q before its # TYPE line", name)
		}
		if st.closed {
			return fmt.Errorf("obs: samples for %q are not contiguous", name)
		}
		current = name
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "# ")
			if rest == line {
				return fmt.Errorf("obs: line %d: comment without `# ` prefix: %q", lineNo, line)
			}
			kw, rest, _ := strings.Cut(rest, " ")
			switch kw {
			case "HELP":
				name, _, _ := strings.Cut(rest, " ")
				if !validName(name) {
					return fmt.Errorf("obs: line %d: HELP for invalid name %q", lineNo, name)
				}
				st := fams[name]
				if st != nil && st.help {
					return fmt.Errorf("obs: line %d: duplicate HELP for %q", lineNo, name)
				}
				if st != nil {
					return fmt.Errorf("obs: line %d: HELP for %q after its TYPE", lineNo, name)
				}
				fams[name] = &familyState{help: true, hist: make(map[string]*histSeries)}
			case "TYPE":
				name, typ, ok := strings.Cut(rest, " ")
				if !ok || !validName(name) {
					return fmt.Errorf("obs: line %d: malformed TYPE line %q", lineNo, line)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, typ)
				}
				st := fams[name]
				if st == nil {
					st = &familyState{hist: make(map[string]*histSeries)}
					fams[name] = st
				}
				if st.typ != "" {
					return fmt.Errorf("obs: line %d: duplicate TYPE for %q", lineNo, name)
				}
				if st.closed {
					return fmt.Errorf("obs: line %d: TYPE for %q after its samples closed", lineNo, name)
				}
				st.typ = typ
			case "EXEMPLAR":
				name, rest, ok := strings.Cut(rest, " ")
				st := fams[name]
				if !ok || st == nil || st.typ != "histogram" {
					return fmt.Errorf("obs: line %d: EXEMPLAR must name a declared histogram: %q", lineNo, line)
				}
				if !strings.HasPrefix(rest, `trace_id="`) {
					return fmt.Errorf("obs: line %d: EXEMPLAR missing trace_id: %q", lineNo, line)
				}
				rest = strings.TrimPrefix(rest, `trace_id="`)
				id, val, ok := strings.Cut(rest, `" `)
				if !ok || id == "" {
					return fmt.Errorf("obs: line %d: malformed EXEMPLAR: %q", lineNo, line)
				}
				if _, err := parseValue(val); err != nil {
					return fmt.Errorf("obs: line %d: EXEMPLAR value: %v", lineNo, err)
				}
			default:
				return fmt.Errorf("obs: line %d: unexpected comment %q (only HELP/TYPE/EXEMPLAR allowed)", lineNo, line)
			}
			continue
		}

		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("obs: line %d: %v", lineNo, err)
		}
		famName := name
		suffix := ""
		if fams[famName] == nil {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, sfx)
				if base != name && fams[base] != nil && fams[base].typ == "histogram" {
					famName, suffix = base, sfx
					break
				}
			}
		}
		st := fams[famName]
		if st == nil || st.typ == "" {
			return fmt.Errorf("obs: line %d: sample %q has no # TYPE declaration", lineNo, name)
		}
		if err := enter(famName); err != nil {
			return fmt.Errorf("obs: line %d: %v", lineNo, err)
		}
		switch st.typ {
		case "histogram":
			if suffix == "" {
				return fmt.Errorf("obs: line %d: histogram sample %q must end in _bucket/_sum/_count", lineNo, name)
			}
			var le string
			kept := make([]label, 0, len(labels))
			for _, l := range labels {
				if l.name == "le" && suffix == "_bucket" {
					le = l.value
					continue
				}
				kept = append(kept, l)
			}
			key := labelKey(kept)
			hs := st.hist[key]
			if hs == nil {
				hs = &histSeries{lastLe: math.Inf(-1)}
				st.hist[key] = hs
			}
			switch suffix {
			case "_bucket":
				if le == "" {
					return fmt.Errorf("obs: line %d: _bucket sample missing le label", lineNo)
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("obs: line %d: unparseable le %q", lineNo, le)
				}
				if bound <= hs.lastLe {
					return fmt.Errorf("obs: line %d: le %q not increasing for %s%s", lineNo, le, famName, key)
				}
				hs.lastLe = bound
				cum := int64(value)
				if value < 0 || float64(cum) != value {
					return fmt.Errorf("obs: line %d: bucket count %v not a non-negative integer", lineNo, value)
				}
				if cum < hs.cum {
					return fmt.Errorf("obs: line %d: bucket counts not cumulative for %s%s", lineNo, famName, key)
				}
				hs.cum = cum
				hs.buckets++
				if math.IsInf(bound, 1) {
					hs.sawInf = true
					hs.infCum = cum
				}
			case "_sum":
				if hs.sawSum {
					return fmt.Errorf("obs: line %d: duplicate _sum for %s%s", lineNo, famName, key)
				}
				hs.sawSum = true
			case "_count":
				if hs.sawCnt {
					return fmt.Errorf("obs: line %d: duplicate _count for %s%s", lineNo, famName, key)
				}
				hs.sawCnt = true
				hs.count = int64(value)
			}
		case "counter":
			if suffix != "" {
				return fmt.Errorf("obs: line %d: counter sample %q has histogram suffix", lineNo, name)
			}
			if value < 0 || math.IsNaN(value) {
				return fmt.Errorf("obs: line %d: counter %q has negative or NaN value", lineNo, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading exposition: %w", err)
	}
	if current != "" {
		if err := closeFamily(current); err != nil {
			return err
		}
	}
	return nil
}

type label struct{ name, value string }

func labelKey(labels []label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.name + "\x1f" + l.value
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, "\x1e") + "}"
}

func parseValue(s string) (float64, error) {
	if s == "" || s != strings.TrimSpace(s) {
		return 0, fmt.Errorf("malformed value %q", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable value %q", s)
	}
	return v, nil
}

// parseSampleLine parses `name{k="v",...} value [timestamp]` with exact
// escaping rules: only \\, \", and \n escapes inside label values.
func parseSampleLine(line string) (string, []label, float64, error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c == '{' || c == ' ' {
			break
		}
		i++
	}
	name := line[:i]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	var labels []label
	if i < len(line) && line[i] == '{' {
		i++
		seen := make(map[string]bool)
		for {
			if i >= len(line) {
				return "", nil, 0, fmt.Errorf("unterminated label set")
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			if j >= len(line) {
				return "", nil, 0, fmt.Errorf("label without '='")
			}
			lname := line[i:j]
			if !validLabel(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			if seen[lname] {
				return "", nil, 0, fmt.Errorf("duplicate label %q", lname)
			}
			seen[lname] = true
			i = j + 1
			if i >= len(line) || line[i] != '"' {
				return "", nil, 0, fmt.Errorf("label %q value not quoted", lname)
			}
			i++
			var val strings.Builder
			for {
				if i >= len(line) {
					return "", nil, 0, fmt.Errorf("unterminated value for label %q", lname)
				}
				c := line[i]
				if c == '"' {
					i++
					break
				}
				if c == '\\' {
					if i+1 >= len(line) {
						return "", nil, 0, fmt.Errorf("dangling escape in label %q", lname)
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("invalid escape \\%c in label %q", line[i+1], lname)
					}
					i += 2
					continue
				}
				val.WriteByte(c)
				i++
			}
			labels = append(labels, label{lname, val.String()})
			if i < len(line) && line[i] == ',' {
				i++
			} else if i < len(line) && line[i] != '}' {
				return "", nil, 0, fmt.Errorf("expected ',' or '}' after label %q", lname)
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return "", nil, 0, fmt.Errorf("missing value separator in %q", line)
	}
	rest := line[i+1:]
	valStr, tsStr, hasTS := strings.Cut(rest, " ")
	v, err := parseValue(valStr)
	if err != nil {
		return "", nil, 0, err
	}
	if hasTS {
		if _, err := strconv.ParseInt(tsStr, 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", tsStr)
		}
	}
	return name, labels, v, nil
}
