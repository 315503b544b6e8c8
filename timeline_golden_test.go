package epiphany_test

// The timeline goldens pin the SHA-256 of every preset's Perfetto
// timeline on e64 and on the 4-chip cluster. The metric goldens pin
// only a run's totals; the timeline carries the start and end of every
// compute, DMA and flag-spin span, so a change that reorders a flag
// post or a DMA inside a kernel moves a digest here even when the
// totals happen to agree. A legitimate change reprints the table with
// `EPIPHANY_REGEN=1 go test -run TestRegenGoldens -v .`.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"epiphany"
)

// timelineDigest is one preset's timeline digest on one topology.
type timelineDigest struct {
	topo, workload, sha string
}

// timelineDigests runs every preset with a timeline attached on e64 and
// on cluster-2x2 and returns the SHA-256 of each document's bytes.
func timelineDigests(t *testing.T) []timelineDigest {
	t.Helper()
	var out []timelineDigest
	var buf bytes.Buffer
	for _, topo := range []epiphany.Topology{epiphany.TopologyE64, epiphany.TopologyCluster2x2} {
		for _, w := range epiphany.Workloads() {
			buf.Reset()
			if _, err := epiphany.Run(context.Background(), w,
				epiphany.WithTopology(topo), epiphany.WithTimeline(&buf)); err != nil {
				t.Fatalf("%s on %s: %v", w.Name(), topo.Name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			out = append(out, timelineDigest{topo.Name, w.Name(), hex.EncodeToString(sum[:])})
		}
	}
	return out
}

// timelineGolden maps topology and preset to its timeline's SHA-256.
var timelineGolden = map[[2]string]string{
	{"e64", "matmul-cannon"}:               "69241ec090becd15bedc614b70a0d862b555e89bb77955a261f0d1aa526f20b5",
	{"e64", "matmul-offchip"}:              "6323bfbaeadf2827ec60f0a24a9cb588e252d4d64833a08008fb2b07b1c74bcb",
	{"e64", "matmul-single"}:               "10e5bceace9484fef84792ba39e9d03b968588eda57f6aaa397fe3bfc28ba4ae",
	{"e64", "matmul-summa"}:                "0fda3bfb756c1bb315c421d9ad12e8afee642c647555492c2700b4ef107eda9b",
	{"e64", "stencil-cross"}:               "ee597fb3c07d7bb24590e10d996eb52f8544ca5f01b8d439f1e47e38cfbab75f",
	{"e64", "stencil-direct"}:              "c730d9f3543da842cf3a37ef68e1bb844c7cdd1191db7f3efd9230b6fe81e224",
	{"e64", "stencil-naive"}:               "7a6a1c4f89ad7158693588d1292a3674d4b0b016a49181a40ce34d3088b30b65",
	{"e64", "stencil-replicated"}:          "7c8fa0963cb0e3aefa595721eaf43576fce9bdd3c18d41957eb7dfc05586bcd1",
	{"e64", "stencil-single"}:              "50ee307f0687ad8796edada5dca76e11840ceac6a8104df2ddfd314c0b55cc66",
	{"e64", "stencil-tuned"}:               "5ec7b9f8d682ee85ef6fe66fb545ce017d1fe50e64c9506bedaade3c573c6287",
	{"e64", "stream-stencil"}:              "90ce2239ef989a8b428ed1d9a37759d23c30e269278b5e3e51e9a5205cdcc29b",
	{"e64", "stream-stencil-deep"}:         "9fe2132cdc1b87784e5bb52ae3d94760b75dbde4ebd0ded435e2787a5643ed67",
	{"cluster-2x2", "matmul-cannon"}:       "69241ec090becd15bedc614b70a0d862b555e89bb77955a261f0d1aa526f20b5",
	{"cluster-2x2", "matmul-offchip"}:      "274ff845e534d219dc747c3b8c3e106c7fac0568bccfde0f0cd62e24939e4407",
	{"cluster-2x2", "matmul-single"}:       "10e5bceace9484fef84792ba39e9d03b968588eda57f6aaa397fe3bfc28ba4ae",
	{"cluster-2x2", "matmul-summa"}:        "0fda3bfb756c1bb315c421d9ad12e8afee642c647555492c2700b4ef107eda9b",
	{"cluster-2x2", "stencil-cross"}:       "ee597fb3c07d7bb24590e10d996eb52f8544ca5f01b8d439f1e47e38cfbab75f",
	{"cluster-2x2", "stencil-direct"}:      "c730d9f3543da842cf3a37ef68e1bb844c7cdd1191db7f3efd9230b6fe81e224",
	{"cluster-2x2", "stencil-naive"}:       "7a6a1c4f89ad7158693588d1292a3674d4b0b016a49181a40ce34d3088b30b65",
	{"cluster-2x2", "stencil-replicated"}:  "7c8fa0963cb0e3aefa595721eaf43576fce9bdd3c18d41957eb7dfc05586bcd1",
	{"cluster-2x2", "stencil-single"}:      "50ee307f0687ad8796edada5dca76e11840ceac6a8104df2ddfd314c0b55cc66",
	{"cluster-2x2", "stencil-tuned"}:       "5ec7b9f8d682ee85ef6fe66fb545ce017d1fe50e64c9506bedaade3c573c6287",
	{"cluster-2x2", "stream-stencil"}:      "0cb79a75d031301e2378c9f98de8ae06ce5e5d3f4bf29b4e6723ac8dab0890c6",
	{"cluster-2x2", "stream-stencil-deep"}: "3fe05e5879deed0ebba2eb8970a7832b29fe323e04912f9ec09273371371bda5",
}

func TestTimelineDigestGolden(t *testing.T) {
	got := timelineDigests(t)
	if len(got) != len(timelineGolden) {
		t.Errorf("%d timelines, golden has %d", len(got), len(timelineGolden))
	}
	for _, d := range got {
		want, ok := timelineGolden[[2]string{d.topo, d.workload}]
		if !ok {
			t.Errorf("%s on %s: no golden digest (got %s)", d.workload, d.topo, d.sha)
			continue
		}
		if d.sha != want {
			t.Errorf("%s on %s: timeline SHA-256 %s, want %s", d.workload, d.topo, d.sha, want)
		}
	}
}
