package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"epiphany/internal/system"
)

// FuzzJobSpec feeds untrusted POST /v1/jobs bodies through the
// handler's decoder and JobSpec.resolve. Neither may panic, and a
// resolved cell must carry its topology in canonical grammar spelling -
// the form the cache key hashes.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"stencil-tuned","topo":"e16"}`,
		`{"workload":"stencil-tuned","topo":"grid=+2x2/chip=4x4"}`,
		`{"workload":"stencil-tuned","topo":"cluster-2x2/c2c=40:600/shards=1"}`,
		`{"workload":"stencil-tuned","topo":"e16","seed":7}`,
		`{"workload":"stencil-tuned","topo":"e16","power":"epiphany-iv-28nm","dvfs":"300@0.85"}`,
		`{"workload":"stencil-tuned"}`,
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
	})
}
