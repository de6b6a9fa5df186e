package obs

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition content type both
// binaries answer GET /metrics with.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteMetrics renders v, a struct or a pointer to one, in Prometheus text
// exposition format (version 0.0.4). Each metric is declared once, by struct
// tags on the snapshot field it reads:
//
//	metric:"name,kind"     the field is family name of kind counter, gauge or
//	                       histogram; "-" keeps the walker out of a field
//	help:"text"            the family's help text
//	unit:"us"              the field holds microseconds, exported as seconds
//	sum:"Field"            a histogram's ([]Bucket) total, in microseconds
//	enum:"a|b|c"           a string field, exported as its index in the list
//	label:"key[,empty=v]"  a row's key field, exported as label key (as v
//	                       when the field is empty)
//	total:"name"           also export the field's sum over the rows as the
//	totalhelp:"text"       unlabeled family name
//
// An untagged slice of structs is a table: each element is a row, and its
// label fields label its samples. An untagged struct field is walked in
// place. Families render in field order, and each opens once, even over an
// empty table. Reflection runs here, at scrape time, never on the request
// path.
func WriteMetrics(w io.Writer, v any) error {
	mw := &metricWriter{w: w}
	rv := reflect.Indirect(reflect.ValueOf(v))
	mw.rows(rv.Type(), []reflect.Value{rv}, []string{""})
	return mw.err
}

// metricWriter emits exposition lines; its first write error is sticky.
type metricWriter struct {
	w    io.Writer
	name string
	err  error
}

func (mw *metricWriter) printf(format string, args ...any) {
	if mw.err != nil {
		return
	}
	_, mw.err = fmt.Fprintf(mw.w, format, args...)
}

// rows renders the families of struct type t over rows, whose samples carry
// the matching rendered label lists.
func (mw *metricWriter) rows(t reflect.Type, rows []reflect.Value, labels []string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("metric")
		if name, kind, ok := strings.Cut(tag, ","); ok {
			mw.family(f, i, name, kind, rows, labels)
			continue
		}
		if tag == "-" {
			continue
		}
		var sub []reflect.Value
		var subLabels []string
		et := f.Type
		switch {
		case et.Kind() == reflect.Struct:
			for _, row := range rows {
				sub = append(sub, row.Field(i))
			}
			subLabels = labels
		case et.Kind() == reflect.Slice && et.Elem().Kind() == reflect.Struct:
			et = et.Elem()
			for r, row := range rows {
				table := row.Field(i)
				for j := 0; j < table.Len(); j++ {
					sub = append(sub, table.Index(j))
					subLabels = append(subLabels, joinLabels(labels[r], rowLabels(table.Index(j))))
				}
			}
		default:
			continue
		}
		mw.rows(et, sub, subLabels)
	}
}

// family opens the family that field i, f, declares and emits one sample
// per row.
func (mw *metricWriter) family(f reflect.StructField, i int, name, kind string, rows []reflect.Value, labels []string) {
	mw.open(name, kind, f.Tag.Get("help"))
	var total float64
	for r, row := range rows {
		v := row.Field(i)
		if kind == "histogram" {
			sum := row.FieldByName(f.Tag.Get("sum")).Float() / 1e6
			mw.histogram(labels[r], v.Interface().([]Bucket), sum)
			continue
		}
		x := number(v, f.Tag)
		total += x
		mw.value(labels[r], x)
	}
	if tn := f.Tag.Get("total"); tn != "" {
		mw.open(tn, kind, f.Tag.Get("totalhelp"))
		mw.value("", total)
	}
}

func (mw *metricWriter) open(name, kind, help string) {
	mw.name = name
	mw.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, kind)
}

// value emits one sample of the open family. labels is a rendered
// `k="v",k="v"` list or "" for an unlabeled sample.
func (mw *metricWriter) value(labels string, v float64) {
	if labels == "" {
		mw.printf("%s %s\n", mw.name, formatFloat(v))
		return
	}
	mw.printf("%s{%s} %s\n", mw.name, labels, formatFloat(v))
}

// histogram emits one histogram sample of the open family from a bucket
// snapshot: cumulative `_bucket` series with `le` in seconds (the power-of-
// two microsecond bounds converted, the unbounded bucket as +Inf), then
// `_sum` (seconds) and `_count`.
func (mw *metricWriter) histogram(labels string, buckets []Bucket, sum float64) {
	var cum uint64
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, b := range buckets {
		cum += b.Count
		le := "+Inf"
		if b.LEMicros != 0 {
			le = formatFloat(float64(b.LEMicros) / 1e6)
		}
		mw.printf("%s_bucket{%s%sle=\"%s\"} %d\n", mw.name, labels, sep, le, cum)
	}
	if labels == "" {
		mw.printf("%s_sum %s\n%s_count %d\n", mw.name, formatFloat(sum), mw.name, cum)
		return
	}
	mw.printf("%s_sum{%s} %s\n%s_count{%s} %d\n", mw.name, labels, formatFloat(sum), mw.name, labels, cum)
}

// number reads a numeric, bool or enum field as a sample value.
func number(v reflect.Value, tag reflect.StructTag) float64 {
	var x float64
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			x = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		x = v.Float()
	case reflect.String:
		x = float64(max(0, slices.Index(strings.Split(tag.Get("enum"), "|"), v.String())))
	}
	if tag.Get("unit") == "us" {
		x /= 1e6
	}
	return x
}

// rowLabels renders a table row's label fields, in field order.
func rowLabels(row reflect.Value) string {
	var kv []string
	for i := 0; i < row.NumField(); i++ {
		key, empty, hasEmpty := strings.Cut(row.Type().Field(i).Tag.Get("label"), ",empty=")
		if key == "" {
			continue
		}
		val := fmt.Sprint(row.Field(i).Interface())
		if val == "" && hasEmpty {
			val = empty
		}
		kv = append(kv, key, val)
	}
	return labelList(kv...)
}

func joinLabels(outer, inner string) string {
	if outer == "" || inner == "" {
		return outer + inner
	}
	return outer + "," + inner
}

// labelList renders a label list from alternating key/value pairs, escaping
// values per the exposition format.
func labelList(kv ...string) string {
	var sb strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[i+1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// Registry is a process's GET /metrics handler: every scrape renders the
// snapshot the func returns with WriteMetrics, so metrics are read from the
// live counters at scrape time and never double-tracked.
type Registry func() any

// ServeHTTP answers GET /metrics.
func (r Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	_ = WriteMetrics(w, r()) // the connection is the only failure mode left here
}
