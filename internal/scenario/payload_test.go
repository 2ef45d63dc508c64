package scenario

import (
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"repro/api"
)

// fill sets every field reachable from v to a non-zero value that
// depends on k, so fill(v, 1) and fill(v, 2) differ in every leaf.
func fill(v reflect.Value, k int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), k)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), k)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 { // json.RawMessage
			v.SetBytes([]byte(strconv.Itoa(k)))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0), k)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(k))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(k))
	case reflect.Uint64:
		v.SetUint(uint64(k))
	case reflect.Float64:
		v.SetFloat(float64(k) + 0.5)
	case reflect.Bool:
		v.SetBool(k == 1)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestPayloadIgnoresOnlyMetadata checks the comparison every row's
// byte-identity check rests on: two plan or simulate responses that
// differ only in their cache outcome or cluster routing have the same
// payload, and changing any other field changes it.
func TestPayloadIgnoresOnlyMetadata(t *testing.T) {
	mustPayload := func(resp any) string {
		t.Helper()
		p, err := payload(resp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, resp := range []any{&api.PlanResponse{}, &api.SimulateResponse{}} {
		v := reflect.ValueOf(resp).Elem()
		fill(v, 1)
		base := mustPayload(resp)
		raw, _ := json.Marshal(resp)
		if got := mustPayload(json.RawMessage(raw)); got != base {
			t.Errorf("%T: the payload of the raw body %s differs from the decoded one %s", resp, got, base)
		}
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			f := v.Field(i)
			saved := reflect.New(f.Type()).Elem()
			saved.Set(f)
			fill(f, 2)
			meta := name == "Cache" || name == "Cluster"
			if same := mustPayload(resp) == base; same != meta {
				t.Errorf("%T: changing %s leaves the payload equal = %v, want %v", resp, name, same, meta)
			}
			f.Set(saved)
		}
	}
}
