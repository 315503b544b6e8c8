package isa

import "fmt"

// Matmul schedule builder, following §VII of the paper.
//
// Register plan (the paper's):
//   - r32-r63: up to 32 accumulators holding one row of the product C.
//   - r16-r23: eight-element window of the current row of B, re-filled by
//     doubleword loads four elements ahead of consumption.
//   - r11, r12, r14, r15: pre-loaded elements of A ("by pre-loading a few
//     elements of matrix A and B, after each has been used the next
//     unprocessed element is loaded into the freed registers").
//
// One macro multiplies a single element of A with all n elements of the
// corresponding row of B, accumulating into the n C-row registers: for
// n = 32 that is 32 FMADDs with ~18 interleaved integer-lane
// instructions, "a total of 50 instructions executing 64 Flops in 32
// cycles". A row of C takes n macros followed by an epilogue that stores
// the finished row with doubleword stores, clears the accumulators and
// loops.

// MatmulMaxN is the largest per-core block edge the register file
// supports (32 accumulators in r32-r63), which is also the paper's limit.
const MatmulMaxN = 32

const (
	matmulAccBase Reg = 32
	matmulBBase   Reg = 16
)

// matmulAElems are the rotating A-element registers.
var matmulAElems = [4]Reg{11, 12, 14, 15}

// MatmulMacro emits the multiply of one A element into an n-wide C row.
// nextA is the register that receives the following macro's A element
// ("after each has been used the next unprocessed element is loaded into
// the freed registers").
func MatmulMacro(n int, aReg, nextA Reg) []Op {
	if n < 1 || n > MatmulMaxN {
		panic(fmt.Sprintf("isa: matmul block edge %d out of range 1..%d", n, MatmulMaxN))
	}
	// Integer-lane companions indexed by FMADD slot. Every even slot j
	// carries the doubleword load of B-stream elements j+4 and j+5 into
	// the 8-register window (wrapping into the next macro's row), staying
	// exactly four elements ahead of consumption: loaded at slot j, ready
	// at j+2, consumed at j+4 and j+5. Odd slots carry the next A-element
	// load and pointer arithmetic.
	comp := make([]*Op, n)
	put := func(slot int, op Op) {
		if slot < n {
			comp[slot] = &op
		}
	}
	for j := 0; j < n; j += 2 {
		put(j, Load64(matmulBBase+Reg((j+4)%8)))
	}
	put(1, Load32(nextA))
	put(3, Iadd(0, 0))
	put(5, Iadd(1, 1))

	prog := make([]Op, 0, 2*n)
	for j := 0; j < n; j++ {
		prog = append(prog, Fmadd(matmulAccBase+Reg(j), aReg, matmulBBase+Reg(j%8)))
		if comp[j] != nil {
			prog = append(prog, *comp[j])
		}
	}
	return prog
}

// MatmulRowBodyNK emits the loop body computing one row of a
// C(m x k) += A(m x n) * B(n x k) block multiply: n macros of k FMADDs
// each (cycling through the four A-element registers), then the k-wide
// row epilogue (store the row, clear the accumulators, advance pointers,
// branch back). The paper's square n x n blocks take k = n.
func MatmulRowBodyNK(n, k int) []Op {
	var prog []Op
	for i := 0; i < n; i++ {
		prog = append(prog, MatmulMacro(k, matmulAElems[i%4], matmulAElems[(i+1)%4])...)
	}
	for j := 0; j+1 < k; j += 2 {
		prog = append(prog, Store64(matmulAccBase+Reg(j)))
	}
	if k%2 == 1 {
		prog = append(prog, Store32(matmulAccBase+Reg(k-1)))
	}
	for j := 0; j < k; j++ {
		prog = append(prog, Imov(matmulAccBase+Reg(j)))
	}
	prog = append(prog, Iadd(0, 0), Iadd(1, 1), Iadd(2, 2), Iadd(3, 3))
	prog = append(prog, Branch())
	return prog
}

// MatmulPrologue emits the per-block setup: pre-loading the first A
// elements and B window, clearing the accumulators, pointer setup.
func MatmulPrologue(n int) []Op {
	var prog []Op
	for _, a := range matmulAElems {
		prog = append(prog, Load32(a))
	}
	for j := 0; j < 4; j++ {
		prog = append(prog, Load64(matmulBBase+Reg(2*j)))
	}
	for j := 0; j < n; j++ {
		prog = append(prog, Imov(matmulAccBase+Reg(j)))
	}
	for i := 0; i < 8; i++ {
		prog = append(prog, Iadd(0, 0))
	}
	return prog
}

// MatmulNaiveRowBodyNK emits the compiler-quality version of a C row:
// the same work, but with the loads clustered ahead of the FMADD runs
// instead of interleaved, so the two lanes almost never dual-issue. This
// is what "gave only 60% of peak performance" (§VII) before the inner
// loop was hand-tuned.
func MatmulNaiveRowBodyNK(n, k int) []Op {
	var prog []Op
	for i := 0; i < n; i++ {
		a := matmulAElems[i%4]
		// Loads first (no FPU ops to pair with) ...
		prog = append(prog, Load32(a))
		for j := 0; j < k; j += 2 {
			prog = append(prog, Load64(matmulBBase+Reg((j+4)%8)))
		}
		prog = append(prog, Iadd(0, 0), Iadd(1, 1), Iadd(2, 2))
		// ... then the FMADD run.
		for j := 0; j < k; j++ {
			prog = append(prog, Fmadd(matmulAccBase+Reg(j), a, matmulBBase+Reg(j%8)))
		}
	}
	for j := 0; j+1 < k; j += 2 {
		prog = append(prog, Store64(matmulAccBase+Reg(j)))
	}
	for j := 0; j < k; j++ {
		prog = append(prog, Imov(matmulAccBase+Reg(j)))
	}
	prog = append(prog, Iadd(0, 0), Iadd(1, 1), Iadd(2, 2), Iadd(3, 3))
	prog = append(prog, Branch())
	return prog
}
