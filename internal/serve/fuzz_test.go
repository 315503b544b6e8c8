package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// FuzzJobSpec feeds untrusted POST /v1/jobs bodies through the
// handler's decoder and JobSpec.resolve. Neither may panic, and a
// resolved cell must carry its topology and workload in canonical
// spelling - the form the cache key hashes.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"stencil-tuned","topo":"e16"}`,
		`{"workload":"stencil-tuned","topo":"grid=+2x2/chip=4x4"}`,
		`{"workload":"stencil-tuned","topo":"cluster-2x2/c2c=40:600/shards=1"}`,
		`{"workload":"stencil-tuned","topo":"e16","seed":7}`,
		`{"workload":"stencil-tuned","topo":"e16","power":"epiphany-iv-28nm","dvfs":"300@0.85"}`,
		`{"workload":"stencil-tuned"}`,
		`{"workload":"stencil-tuned/rows=40","topo":"e16"}`,
		`{"workload":"matmul-cannon/m=32/n=32/k=32/g=2","topo":"e16"}`,
		`{"workload":"matmul-offchip/k=512/n=512/m=512/offchip=true"}`,
		`{"workload":"stream-stencil/grid=64x64/block=8x8/group=4x4/t=4","seed":3}`,
		`{"workload":"stencil-tuned/rws=20"}`,
		`{"workload":"stencil-tuned/rows=1/rows=2"}`,
		`{"workload":"stencil-tuned/"}`,
		`{"workload":"stencil-tunned"}`,
		`{"workload":"stencil-tuned","topo":"e63"}`,
		`{"workload":"stencil-tuned","topo":"grid=8x8/chip=8x8"}`,
		`{"workload":"stencil-tuned","dvfs":"600@1.0"}`,
		`{"wrkload":"x"}`,
		`{}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		_, cell, err := spec.resolve()
		if err != nil {
			return // rejected is fine; panicking is not
		}
		st, err := system.ParseTopologySpec(cell.Topo)
		if err != nil || st.Spec() != cell.Topo {
			t.Fatalf("resolved cell topology %q is not canonical (%v)", cell.Topo, err)
		}
		w, err := workload.Parse(cell.Workload)
		if err != nil || w.Name() != cell.Workload {
			t.Fatalf("resolved cell workload %q is not canonical (%v)", cell.Workload, err)
		}
	})
}
