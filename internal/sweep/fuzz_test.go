package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// FuzzSweepPlan feeds untrusted sweep bodies through the decoder the
// serve daemon uses (unknown fields rejected) and Normalize. Neither
// may panic; an accepted plan must normalize to a fixpoint that
// fingerprints like the raw plan, with every topology axis value in
// its canonical grammar spelling and every workload in its canonical
// spec spelling.
func FuzzSweepPlan(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"workloads":["stencil-tuned"],"topos":["e16","e64"]}`,
		`{"workloads":["stencil-tuned","matmul-cannon"],"topos":["e64","e16","e16"],"seeds":[2,1,2]}`,
		`{"workloads":["stencil-tuned"],"topos":["e16","grid=+2x2/chip=4x4","cluster-2x2/c2c=40:600/shards=1"]}`,
		`{"workloads":["stencil-tuned"],"topos":["e16","grid=2x4"],"baseline":"grid=2x4"}`,
		`{"workloads":["stencil-tuned"],"topos":["e64"],"power":"epiphany-iv-28nm","dvfs":["600@1.0","300MHz@0.85V"]}`,
		`{"workloads":["stencil-tuned"],"topos":["cluster4x4"]}`,
		`{"workloads":["stencil-tuned"],"topos":[{"preset":"e16"}]}`,
		`{"workloads":["no-such"]}`,
		`{"workloads":["stencil-tuned/rows=40","stencil-tuned","matmul-cannon/m=32/n=32/k=32/g=2"],"topos":["e16"]}`,
		`{"workloads":["stream-stencil/t=4/block=8x8","stream-stencil/block=8x8/t=04"]}`,
		`{"workloads":["stencil-tuned/rows=abc"]}`,
		`{"workloads":["stencil-tuned//"]}`,
		`{"baseline":"cluster-9x9"}`,
		`{"topos":["cluster-2x2/c2c=0:0","4x8","e64x16/shards=4"],"baseline":"+4x8"}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw Plan
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&raw); err != nil {
			return
		}
		n, err := raw.Normalize()
		if err != nil {
			return // rejected is fine; panicking is not
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized plan %+v rejected: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize not a fixpoint:\n%+v\n%+v", n, again)
		}
		rawID, err := raw.Fingerprint()
		if err != nil {
			t.Fatalf("raw plan normalizes but does not fingerprint: %v", err)
		}
		if id, _ := n.Fingerprint(); id != rawID {
			t.Fatalf("normalized plan fingerprints %s, raw plan %s", id, rawID)
		}
		for _, v := range n.Topos {
			st, err := system.ParseTopologySpec(v)
			if err != nil || st.Spec() != v {
				t.Fatalf("axis value %q is not canonical (%v)", v, err)
			}
		}
		for _, v := range n.Workloads {
			w, err := workload.Parse(v)
			if err != nil || w.Name() != v {
				t.Fatalf("workload axis value %q is not canonical (%v)", v, err)
			}
		}
	})
}
