package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"epiphany/internal/mem"
)

// mulBlockWordLoop is the word-at-a-time loop the Cannon and SUMMA
// kernels ran before mulBlock: three scalar accessor calls per
// multiply-add, each product rounded to float32 before its sum. It is
// the reference mulBlock must match in every result bit and every
// charged SRAM byte.
func mulBlockWordLoop(sram *mem.Memory, a, b, c mem.Addr, m, n, k int) {
	for i := 0; i < m; i++ {
		for l := 0; l < n; l++ {
			av := sram.LoadF32(a + mem.Addr(4*(i*n+l)))
			for j := 0; j < k; j++ {
				off := c + mem.Addr(4*(i*k+j))
				sram.StoreF32(off, sram.LoadF32(off)+float32(av*sram.LoadF32(b+mem.Addr(4*(l*k+j)))))
			}
		}
	}
}

// Operand placement of the paper's 32x32 plan; smaller blocks fit too.
const (
	mulTestA = matmulA32
	mulTestB = matmulB32
	mulTestC = matmulC32
)

// mulBlockSRAM returns a scratchpad holding seeded random A, B and C
// blocks; equal seeds give equal bytes and equal access counters.
func mulBlockSRAM(seed int64, m, n, k int) *mem.Memory {
	rng := rand.New(rand.NewSource(seed))
	s := mem.NewSRAM()
	fill := func(off mem.Addr, count int) {
		for i := 0; i < count; i++ {
			s.StoreF32(off+mem.Addr(4*i), rng.Float32()*2-1)
		}
	}
	fill(mulTestA, m*n)
	fill(mulTestB, n*k)
	fill(mulTestC, m*k)
	return s
}

func TestMulBlockMatchesWordLoop(t *testing.T) {
	for i, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {32, 32, 32}, {5, 6, 9}, {32, 7, 13}, {16, 33, 20}, {4, 4, 4}, {2, 8, 3}} {
		m, n, k := dims[0], dims[1], dims[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(t *testing.T) {
			seed := int64(100 + i)
			got, want := mulBlockSRAM(seed, m, n, k), mulBlockSRAM(seed, m, n, k)
			mulBlock(got, mulTestA, mulTestB, mulTestC, m, n, k)
			mulBlockWordLoop(want, mulTestA, mulTestB, mulTestC, m, n, k)
			if g, w := got.AccessedBytes(), want.AccessedBytes(); g != w {
				t.Fatalf("AccessedBytes = %d, word loop charges %d", g, w)
			}
			g, w := make([]byte, mem.SRAMSize), make([]byte, mem.SRAMSize)
			got.Read(0, g)
			want.Read(0, w)
			if !bytes.Equal(g, w) {
				t.Fatal("scratchpad bytes differ from the word loop")
			}
		})
	}
}

func TestMulBlockAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	s := mulBlockSRAM(1, 32, 32, 32)
	mulBlock(s, mulTestA, mulTestB, mulTestC, 32, 32, 32) // warm the pool
	if allocs := testing.AllocsPerRun(20, func() {
		mulBlock(s, mulTestA, mulTestB, mulTestC, 32, 32, 32)
	}); allocs != 0 {
		t.Fatalf("mulBlock allocates %.1f times per call with a warm pool", allocs)
	}
}

// TestTimingModelLookupAllocsZero: the warm timing-cache lookups a
// block multiply and a matmul plan make allocate nothing.
func TestTimingModelLookupAllocsZero(t *testing.T) {
	MatmulBlockModel(32, 32, 32, true) // fill the cache
	matmulCodeBytes(32, 32)
	if allocs := testing.AllocsPerRun(20, func() {
		MatmulBlockModel(32, 32, 32, true)
		matmulCodeBytes(32, 32)
	}); allocs != 0 {
		t.Fatalf("timing-cache lookups allocate %.1f times", allocs)
	}
}

// BenchmarkMulBlock times one 32x32x32 block product, the paper's
// per-core Cannon step, against the word-at-a-time loop it replaced.
func BenchmarkMulBlock(b *testing.B) {
	for _, bc := range []struct {
		name string
		f    func(*mem.Memory, mem.Addr, mem.Addr, mem.Addr, int, int, int)
	}{{"bulk", mulBlock}, {"words", mulBlockWordLoop}} {
		b.Run(bc.name, func(b *testing.B) {
			s := mulBlockSRAM(1, 32, 32, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.f(s, mulTestA, mulTestB, mulTestC, 32, 32, 32)
			}
		})
	}
}
