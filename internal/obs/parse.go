package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseText is the inverse of WriteSnapshotText: it reads Prometheus
// text exposition in exactly the dialect that writer emits, and nothing
// else, back into the families it was written from. Nothing in the
// daemon reads its own text; ParseText is the oracle its tests hold
// /metrics and /v1/fleet/metrics to, and what lets them compare either
// with GET /stats as data. The grammar, all of it enforced:
//
//   - the text is valid UTF-8, and every line, none of them blank, ends
//     in a newline;
//   - a family is a `# HELP` line, a `# TYPE` line of counter, gauge or
//     histogram, then its own samples; no family name repeats;
//   - a sample is `name{label="value",...} value`, with no timestamp.
//     Label values escape exactly `\\`, `\"` and `\n`, HELP text `\\`
//     and `\n`. Every series of a family carries the same label names
//     in the same order, and no series repeats;
//   - values are spelled as the writer spells them: counters in plain
//     decimal, never negative or NaN, gauges and sums in shortest form;
//   - a histogram series is its `_bucket` lines, `le` the last label,
//     bounds increasing to `+Inf` and counts integer and cumulative,
//     then `_sum`, then `_count`, which equals the `+Inf` bucket. All
//     series of a family share one set of bounds;
//   - `# EXEMPLAR <family> trace_id="<id>" <value>` may follow the last
//     sample of its histogram family. It is checked, not returned.
//
// Bucket counts come back per bucket, as SeriesSnapshot holds them.
// Text cannot carry the label names or bounds of a family that has no
// series, so such a family comes back with nil Labels and Bounds.
func ParseText(r io.Reader) ([]FamilySnapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	if !utf8.Valid(raw) {
		return nil, errors.New("obs: exposition is not valid UTF-8")
	}
	if len(raw) == 0 {
		return nil, nil
	}
	text, ok := strings.CutSuffix(string(raw), "\n")
	if !ok {
		return nil, errors.New("obs: exposition does not end in a newline")
	}
	p := textParser{lines: strings.Split(text, "\n"), seen: make(map[string]bool)}
	var fams []FamilySnapshot
	for p.i < len(p.lines) {
		fs, err := p.family()
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", p.i, err)
		}
		fams = append(fams, fs)
	}
	return fams, nil
}

// textParser walks the lines of one exposition.
type textParser struct {
	lines []string
	i     int             // lines consumed, the number of the last one read
	seen  map[string]bool // family names read so far
}

// next consumes one line; past the end it returns "".
func (p *textParser) next() string {
	p.i++
	if p.i > len(p.lines) {
		return ""
	}
	return p.lines[p.i-1]
}

// peek returns the next line without consuming it, or "" at the end.
func (p *textParser) peek() string {
	if p.i < len(p.lines) {
		return p.lines[p.i]
	}
	return ""
}

// family reads one family: its HELP and TYPE lines, its series and its
// exemplar, if any.
func (p *textParser) family() (FamilySnapshot, error) {
	var fs FamilySnapshot
	line := p.next()
	rest, ok := strings.CutPrefix(line, "# HELP ")
	if !ok {
		return fs, fmt.Errorf("want a # HELP line, got %q", line)
	}
	name, help, ok := strings.Cut(rest, " ")
	if !ok || !validName(name) {
		return fs, fmt.Errorf("malformed HELP line %q", line)
	}
	if p.seen[name] {
		return fs, fmt.Errorf("family %s appears twice", name)
	}
	p.seen[name] = true
	var err error
	if fs.Help, _, err = unescape(help, false); err != nil {
		return fs, fmt.Errorf("HELP of %s: %w", name, err)
	}
	fs.Name = name
	line = p.next()
	fs.Kind, ok = strings.CutPrefix(line, "# TYPE "+name+" ")
	if !ok || fs.Kind != KindCounter && fs.Kind != KindGauge && fs.Kind != KindHistogram {
		return fs, fmt.Errorf("want # TYPE %s counter, gauge or histogram, got %q", name, line)
	}

	series := make(map[string]bool)
	for p.peek() != "" && p.peek()[0] != '#' {
		var s SeriesSnapshot
		var labels []string
		if fs.Kind == KindHistogram {
			s, labels, err = p.histogram(&fs)
		} else {
			s, labels, err = p.scalar(fs)
		}
		if err != nil {
			return fs, err
		}
		if len(fs.Series) == 0 {
			fs.Labels = labels
		} else if !slices.Equal(labels, fs.Labels) {
			return fs, fmt.Errorf("%s series labeled %q, the family's first by %q", name, labels, fs.Labels)
		}
		key := fmt.Sprintf("%q", s.LabelValues)
		if series[key] {
			return fs, fmt.Errorf("%s series %s appears twice", name, key)
		}
		series[key] = true
		fs.Series = append(fs.Series, s)
	}

	if !strings.HasPrefix(p.peek(), "# EXEMPLAR ") {
		return fs, nil
	}
	line = p.next()
	rest, ok = strings.CutPrefix(line, "# EXEMPLAR "+name+` trace_id="`)
	if !ok || fs.Kind != KindHistogram {
		return fs, fmt.Errorf("%q does not follow its histogram family", line)
	}
	id, rest, err := unescape(rest, true)
	value, ok := strings.CutPrefix(rest, " ")
	if err != nil || id == "" || !ok {
		return fs, fmt.Errorf("malformed exemplar %q", line)
	}
	if _, err := number(value, formatFloat); err != nil {
		return fs, fmt.Errorf("exemplar of %s: %w", name, err)
	}
	return fs, nil
}

// scalar reads one counter or gauge series.
func (p *textParser) scalar(fs FamilySnapshot) (SeriesSnapshot, []string, error) {
	labels, values, value, err := sample(p.next(), fs.Name, false)
	if err != nil {
		return SeriesSnapshot{}, nil, err
	}
	s := SeriesSnapshot{LabelValues: values}
	if fs.Kind == KindGauge {
		s.Value, err = number(value, formatFloat)
	} else if s.Value, err = number(value, formatCounter); err == nil && !(s.Value >= 0) {
		err = fmt.Errorf("counter %s is %s", fs.Name, value)
	}
	return s, labels, err
}

// histogram reads one histogram series: its buckets, `_sum` and
// `_count`. The family's first series sets its bounds; every later one
// must repeat them.
func (p *textParser) histogram(fs *FamilySnapshot) (s SeriesSnapshot, labels []string, err error) {
	var bounds []float64
	var cum int64
	for le := math.Inf(-1); !math.IsInf(le, 1); {
		line := p.next()
		names, values, value, err := sample(line, fs.Name+"_bucket", true)
		if err != nil {
			return s, nil, err
		}
		bound, err := number(values[len(values)-1], formatFloat)
		if err != nil || !(bound > le) {
			return s, nil, fmt.Errorf("le does not increase at %q", line)
		}
		le = bound
		names, values = names[:len(names)-1], values[:len(values)-1]
		if len(names) == 0 {
			names, values = nil, nil
		}
		if len(s.BucketCounts) == 0 {
			labels, s.LabelValues = names, values
		} else if !slices.Equal(names, labels) || !slices.Equal(values, s.LabelValues) {
			return s, nil, fmt.Errorf("%q is not a bucket of the series above it", line)
		}
		c, err := count(value)
		if err != nil || c < cum {
			return s, nil, fmt.Errorf("bucket counts are not cumulative at %q", line)
		}
		s.BucketCounts = append(s.BucketCounts, c-cum)
		cum = c
		if !math.IsInf(le, 1) {
			bounds = append(bounds, le)
		}
	}
	if len(fs.Series) == 0 {
		fs.Bounds = bounds
	} else if !slices.Equal(bounds, fs.Bounds) {
		return s, nil, fmt.Errorf("%s series bounds %v, the family's first %v", fs.Name, bounds, fs.Bounds)
	}
	for _, suffix := range []string{"_sum", "_count"} {
		names, values, value, err := sample(p.next(), fs.Name+suffix, false)
		if err != nil {
			return s, nil, err
		}
		if !slices.Equal(names, labels) || !slices.Equal(values, s.LabelValues) {
			return s, nil, fmt.Errorf("%s%s is not of the series its buckets are", fs.Name, suffix)
		}
		if suffix == "_sum" {
			s.Sum, err = number(value, formatFloat)
		} else if s.Count, err = count(value); err == nil && s.Count != cum {
			err = fmt.Errorf("%s_count %d is not the +Inf bucket's %d", fs.Name, s.Count, cum)
		}
		if err != nil {
			return s, nil, err
		}
	}
	return s, labels, nil
}

// sample splits one sample line of the sample called name into its
// label names, label values and value text. With le set, its last label
// must be le.
func sample(line, name string, le bool) (names, values []string, value string, err error) {
	malformed := fmt.Errorf("want a %s sample, got %q", name, line)
	rest, ok := strings.CutPrefix(line, name)
	if !ok {
		return nil, nil, "", malformed
	}
	if rest, ok = strings.CutPrefix(rest, "{"); ok {
		for more := true; more; rest, more = strings.CutPrefix(rest, ",") {
			label, val := "", ""
			label, rest, ok = strings.Cut(rest, `="`)
			if !ok || !validLabel(label) || slices.Contains(names, label) {
				return nil, nil, "", fmt.Errorf("malformed or repeated label in %q", line)
			}
			if val, rest, err = unescape(rest, true); err != nil {
				return nil, nil, "", fmt.Errorf("label %s in %q: %w", label, line, err)
			}
			names, values = append(names, label), append(values, val)
		}
		if rest, ok = strings.CutPrefix(rest, "}"); !ok {
			return nil, nil, "", malformed
		}
	}
	if value, ok = strings.CutPrefix(rest, " "); !ok {
		return nil, nil, "", malformed
	}
	if le && (len(names) == 0 || names[len(names)-1] != "le") {
		return nil, nil, "", fmt.Errorf("le is not the last label of %q", line)
	}
	return names, values, value, nil
}

// unescape undoes the writer's escaping of a HELP text or, with quoted
// set, of a label value, which ends at its first unescaped quote; rest
// is what follows that quote. Both escape `\\` and `\n`; a label value
// also `\"`.
func unescape(s string, quoted bool) (val, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' && quoted {
			return b.String(), s[i+1:], nil
		}
		if c == '\\' {
			if i++; i == len(s) {
				return "", "", errors.New("dangling backslash")
			}
			switch c = s[i]; {
			case c == 'n':
				c = '\n'
			case c != '\\' && (c != '"' || !quoted):
				return "", "", fmt.Errorf("invalid escape %q", s[i-1:i+1])
			}
		}
		b.WriteByte(c)
	}
	if quoted {
		return "", "", errors.New("unterminated label value")
	}
	return b.String(), "", nil
}

// number parses a value that must read exactly as format prints it.
func number(s string, format func(float64) string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || format(v) != s {
		return 0, fmt.Errorf("value %q is not spelled as the writer spells it", s)
	}
	return v, nil
}

// count parses a bucket count or `_count`: a non-negative integer in
// plain decimal.
func count(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || strconv.FormatInt(n, 10) != s {
		return 0, fmt.Errorf("count %q is not a non-negative integer", s)
	}
	return n, nil
}
