// Prometheus text-format exposition (version 0.0.4): # HELP / # TYPE
// headers per family, cumulative le buckets plus _sum/_count for
// histograms. Families expose in sorted name order and series in
// registration order, so consecutive scrapes of an unchanged registry are
// byte-identical.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r.families[name].write(&b)
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	typ := "counter"
	switch f.kind {
	case kindGauge, kindGaugeFunc:
		typ = "gauge"
	case kindHistogram:
		typ = "histogram"
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, typ)
	for _, labels := range f.order {
		s := f.series[labels]
		switch f.kind {
		case kindCounter:
			b.WriteString(f.name)
			b.WriteString(labels)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.counter.Value(), 10))
			b.WriteByte('\n')
		case kindGauge:
			writeSample(b, f.name, labels, s.gauge.Value())
		case kindGaugeFunc:
			writeSample(b, f.name, labels, s.fn())
		case kindHistogram:
			s.hist.write(b, f.name, labels)
		}
	}
}

// writeSample emits one "name{labels} value" line.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// write emits the histogram's cumulative buckets, sum and count. The le
// label is appended to any existing labels.
func (h *Histogram) write(b *strings.Builder, name, labels string) {
	counts := h.BucketCounts()
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		writeBucket(b, name, labels, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += counts[len(counts)-1]
	writeBucket(b, name, labels, "+Inf", cum)
	writeSample(b, name+"_sum", labels, h.Sum())
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

func writeBucket(b *strings.Builder, name, labels, le string, cum int64) {
	b.WriteString(name)
	b.WriteString("_bucket")
	if labels == "" {
		b.WriteString(`{le="` + le + `"}`)
	} else {
		b.WriteString(labels[:len(labels)-1] + `,le="` + le + `"}`)
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}
