package experiments

import (
	"reflect"
	"testing"

	"bsched/internal/ir"
	"bsched/internal/workload"
)

// fillConfig sets every exported scalar and func below v to a non-zero
// value, so a field a copy drops shows as a difference.
func fillConfig(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillConfig(t, name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("%s: no test value for kind %v", name, v.Kind())
	}
}

// sameConfig compares what fillConfig set, funcs by identity.
func sameConfig(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !sameConfig(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.Pointer() == b.Pointer()
	}
	return a.Interface() == b.Interface()
}

// TestDeriveKeepsConfiguration: a derived runner measures under the
// whole configuration of the runner it came from; only the compile
// cache and the degradation list start fresh.
func TestDeriveKeepsConfiguration(t *testing.T) {
	r := &Runner{}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && f.Name != "Degradations" {
			fillConfig(t, f.Name, v.Field(i))
		}
	}
	nv := reflect.ValueOf(derive(r, nil)).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && f.Name != "Degradations" && !sameConfig(v.Field(i), nv.Field(i)) {
			t.Errorf("derive drops %s", f.Name)
		}
	}
}

// TestBudgetedAblationDegrades: an ablation compiles under the runner's
// work budget, and the degradations its derived runners record reach
// the runner the caller holds.
func TestBudgetedAblationDegrades(t *testing.T) {
	r := testRunner()
	r.BlockBudget = 2000
	progs := map[string]*ir.Program{"MDG": workload.Benchmark("MDG")}
	AblationAverageLLP(r, progs, []string{"MDG"})
	if len(r.Degradations) == 0 {
		t.Fatal("a 2000-unit budget degraded nothing the runner can see")
	}
}
