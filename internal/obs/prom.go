package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"xsearch/internal/metrics"
)

// PromContentType is the Prometheus text exposition format version the
// /metrics endpoints serve.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter renders metric families in the Prometheus text exposition
// format. It is a plain encoder, not a registry: callers emit their own
// snapshot values, and the constant-cardinality rule is enforced at the
// call sites (label values must come from closed sets — stage names,
// shard indices, configured upstream hosts).
//
// Samples are buffered per family and written grouped on Flush — the
// exposition format requires every line of a family in one block, and
// the fleet gateway emits the same families once per shard, interleaved.
type PromWriter struct {
	w     io.Writer
	order []string // family emission order (first sample wins)
	fams  map[string]*famBuf
	err   error
}

// famBuf is one family's buffered preamble and sample lines.
type famBuf struct {
	help, typ string
	lines     strings.Builder
}

// NewPromWriter wraps w. Call Flush after the last sample.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, fams: make(map[string]*famBuf)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// fam returns the family's buffer, creating it (and recording its
// HELP/TYPE, first caller wins) on first use.
func (p *PromWriter) fam(name, help, typ string) *famBuf {
	f, ok := p.fams[name]
	if !ok {
		f = &famBuf{help: help, typ: typ}
		p.fams[name] = f
		p.order = append(p.order, name)
	}
	return f
}

func (p *PromWriter) sample(name, help, typ, line string) {
	fmt.Fprint(&p.fam(name, help, typ).lines, line)
}

// Flush writes every buffered family as one contiguous block, in first-
// sample order, and resets the writer. Returns the first write error.
func (p *PromWriter) Flush() error {
	for _, name := range p.order {
		f := p.fams[name]
		if p.err == nil {
			_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n%s", name, f.help, name, f.typ, f.lines.String())
		}
	}
	p.order = nil
	p.fams = make(map[string]*famBuf)
	return p.err
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// renderLabels formats k1,v1,k2,v2,... pairs as {k1="v1",k2="v2"}. Label
// pairs are emitted in the given order (call sites keep it stable).
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one cumulative-counter sample.
func (p *PromWriter) Counter(name, help string, value float64, labels ...string) {
	p.sample(name, help, "counter", fmt.Sprintf("%s%s %s\n", name, renderLabels(labels), formatValue(value)))
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, value float64, labels ...string) {
	p.sample(name, help, "gauge", fmt.Sprintf("%s%s %s\n", name, renderLabels(labels), formatValue(value)))
}

// Quantile is one quantile series of a summary family.
type Quantile struct {
	Q string
	V time.Duration
}

// Summary emits a Prometheus summary family: the quantile series its
// source really holds, in seconds, plus _sum (approximated as mean*count,
// the histogram keeps no exact sum) and _count.
func (p *PromWriter) Summary(name, help string, count uint64, mean time.Duration, quantiles []Quantile, labels ...string) {
	f := p.fam(name, help, "summary")
	ls := renderLabels(labels)
	for _, qv := range quantiles {
		ql := append(append([]string{}, labels...), "quantile", qv.Q)
		fmt.Fprintf(&f.lines, "%s%s %s\n", name, renderLabels(ql), formatValue(Seconds(qv.V)))
	}
	fmt.Fprintf(&f.lines, "%s_sum%s %s\n", name, ls, formatValue(Seconds(mean)*float64(count)))
	fmt.Fprintf(&f.lines, "%s_count%s %d\n", name, ls, count)
}

// StageSummaries emits every stage's snapshot under one family with a
// stage label, iterating the closed StageNames set in its fixed order so
// the exported shape never depends on traffic.
func (p *PromWriter) StageSummaries(name, help string, stages map[string]metrics.LatencySnapshot, labels ...string) {
	for _, stage := range StageNames {
		snap, ok := stages[stage]
		if !ok {
			continue
		}
		sl := append(append([]string{}, labels...), "stage", stage)
		p.Summary(name, help, snap.Count, snap.Mean, []Quantile{
			{"0.5", snap.P50}, {"0.9", snap.P90}, {"0.95", snap.P95}, {"0.99", snap.P99}, {"0.999", snap.P999},
		}, sl...)
	}
}

// Seconds converts a duration to float seconds (Prometheus base unit).
func Seconds(d time.Duration) float64 { return d.Seconds() }
