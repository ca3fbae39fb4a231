package proxy

import (
	"reflect"
	"testing"
)

// fillLeaves sets every numeric and boolean field under v — nested structs
// and slice elements included — to a non-zero value.
func fillLeaves(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(v.Index(i))
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint64:
		v.SetUint(3)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	}
}

// zeroLeaves appends the path of every numeric or boolean field under v
// that is still zero.
func zeroLeaves(path string, v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = zeroLeaves(path+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = zeroLeaves(path+"[]", v.Index(i), out)
		}
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Bool:
		if v.IsZero() {
			out = append(out, path)
		}
	case reflect.Map, reflect.String:
	default:
		out = append(out, path+" (a kind fillLeaves does not set)")
	}
	return out
}

// TestStatsMergeHasARuleForEveryField is the guard on the one field list:
// a snapshot with every numeric field of Stats, enclave.Stats and
// UpstreamStats set, merged into an empty total, must leave none of them
// zero. A field added to Stats without a line in Merge fails here.
func TestStatsMergeHasARuleForEveryField(t *testing.T) {
	n := Stats{Upstreams: []UpstreamStats{{Host: "engine-a:80"}, {Host: "engine-b:80"}}}
	fillLeaves(reflect.ValueOf(&n).Elem())
	var total Stats
	total.Merge(n)
	total.Merge(n)
	for _, path := range zeroLeaves("Stats", reflect.ValueOf(total), nil) {
		t.Errorf("%s has no merge rule: zero after merging a snapshot that sets it", path)
	}
	if len(total.Upstreams) != 2 {
		t.Errorf("two snapshots of the same two upstreams merged into %d", len(total.Upstreams))
	}
}
