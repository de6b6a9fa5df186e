package obs

import (
	"cmp"
	"reflect"
	"sort"
	"strings"
)

// Merge folds the snapshot src into dst, field by field, by each field's
// merge tag; dst is a pointer to a struct, src the same struct or a pointer
// to it. It is how a fleet aggregate is built from its nodes' snapshots:
//
//	merge:"sum"          numbers add
//	merge:"first"        dst keeps its value unless it is zero
//	merge:"buckets"      histograms ([]Bucket) add bucket-wise
//	merge:"ewma=Weight"  a mean, weighted by the row's Weight field
//	merge:"concat"       slices append
//	merge:"keyed"        a table whose rows pair up by their label fields
//	                     (see WriteMetrics), merge row by row, and end
//	                     sorted by those keys
//
// Untagged fields are left alone. Merge runs when a snapshot is
// aggregated, never on the request path.
func Merge(dst, src any) {
	mergeStruct(reflect.ValueOf(dst).Elem(), reflect.Indirect(reflect.ValueOf(src)))
}

func mergeStruct(d, s reflect.Value) {
	// A weighted mean must read dst's weight before a sum rule moves it.
	old := reflect.New(d.Type()).Elem()
	old.Set(d)
	for i := 0; i < d.NumField(); i++ {
		rule, weight, _ := strings.Cut(d.Type().Field(i).Tag.Get("merge"), "=")
		df, sf := d.Field(i), s.Field(i)
		switch rule {
		case "sum":
			switch df.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				df.SetInt(df.Int() + sf.Int())
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				df.SetUint(df.Uint() + sf.Uint())
			case reflect.Float32, reflect.Float64:
				df.SetFloat(df.Float() + sf.Float())
			}
		case "first":
			if df.IsZero() {
				df.Set(sf)
			}
		case "buckets":
			df.Set(reflect.ValueOf(mergeBuckets(df.Interface().([]Bucket), sf.Interface().([]Bucket))))
		case "ewma":
			dw, sw := number(old.FieldByName(weight), ""), number(s.FieldByName(weight), "")
			if dw == 0 {
				df.Set(sf)
			} else if sw > 0 {
				df.SetFloat((df.Float()*dw + sf.Float()*sw) / (dw + sw))
			}
		case "concat":
			df.Set(reflect.AppendSlice(df, sf))
		case "keyed":
			df.Set(mergeKeyed(df, sf))
		}
	}
}

// mergeKeyed merges table src into table dst row by row, pairing rows by
// their label fields; a row dst lacks starts from its key alone, so no slice
// of src ends up aliased into dst.
func mergeKeyed(dst, src reflect.Value) reflect.Value {
	var keys []int
	et := dst.Type().Elem()
	for i := 0; i < et.NumField(); i++ {
		if et.Field(i).Tag.Get("label") != "" {
			keys = append(keys, i)
		}
	}
	order := func(a, b reflect.Value) int {
		for _, k := range keys {
			x, y := a.Field(k), b.Field(k)
			c := 0
			if x.Kind() == reflect.String {
				c = cmp.Compare(x.String(), y.String())
			} else {
				c = cmp.Compare(x.Int(), y.Int())
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	for j := 0; j < src.Len(); j++ {
		row := src.Index(j)
		i := 0
		for i < dst.Len() && order(dst.Index(i), row) != 0 {
			i++
		}
		if i == dst.Len() {
			fresh := reflect.New(et).Elem()
			for _, k := range keys {
				fresh.Field(k).Set(row.Field(k))
			}
			dst = reflect.Append(dst, fresh)
		}
		mergeStruct(dst.Index(i), row)
	}
	sort.Slice(dst.Interface(), func(a, b int) bool { return order(dst.Index(a), dst.Index(b)) < 0 })
	return dst
}

// mergeBuckets sums src into dst bucket-wise. Every node emits the same
// power-of-two schema, so buckets align by index; a node speaking a
// different schema (mid-upgrade) contributes its counts to the closest
// bound instead of being dropped.
func mergeBuckets(dst, src []Bucket) []Bucket {
	if len(dst) == 0 {
		return append(dst, src...)
	}
	for i, b := range src {
		if i < len(dst) && dst[i].LEMicros == b.LEMicros {
			dst[i].Count += b.Count
			continue
		}
		j := len(dst) - 1 // the unbounded overflow bucket
		for k, d := range dst {
			if d.LEMicros >= b.LEMicros && b.LEMicros != 0 {
				j = k
				break
			}
		}
		dst[j].Count += b.Count
	}
	return dst
}
