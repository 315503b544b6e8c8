// Package mem models the Epiphany's flat, unprotected 32-bit address space:
// per-eCore 32 KB scratchpad SRAM organized as four 8 KB banks, globally
// addressable core memory windows (core row/column encoded in the top 12
// address bits, as on the real chip), and the off-chip shared DRAM window
// that the ARM host and the eCores both map.
//
// The package is purely functional (no timing): the NoC and core models
// charge time for accesses; this package says where bytes live and keeps
// the accounting that makes the paper's memory-pressure arguments (code vs
// data vs stack in 4 banks) checkable.
//
// A scratchpad and the 32 MB DRAM window are one type, Memory: a table
// of 4 KB blocks, each allocated on its first write, so a board costs the
// memory its programs touch. Bytes cross into and out of a memory only by
// copying.
package mem

import "fmt"

// Addr is a 32-bit Epiphany global address.
type Addr uint32

// Architectural constants of the E64G401 as described in the paper and the
// Epiphany architecture reference.
const (
	// SRAMSize is the per-core local memory: 32 KB.
	SRAMSize = 32 * 1024
	// BankSize is the size of one of the four local memory banks: 8 KB.
	BankSize = 8 * 1024
	// NumBanks is the number of local memory banks per core.
	NumBanks = SRAMSize / BankSize
	// coreShift positions the 12-bit core ID in the top address bits.
	coreShift = 20
	// coreColBits is the width of the column field within the core ID.
	coreColBits = 6
	// FirstRow and FirstCol are the mesh coordinates of core (0,0) on the
	// E64G401 (the chip occupies rows 32-39, columns 8-15 of the global
	// 64x64 mesh address space).
	FirstRow = 32
	FirstCol = 8
	// DRAMBase is where the shared-memory window begins on the Parallella/
	// ZedBoard memory map.
	DRAMBase Addr = 0x8E000000
	// DRAMSize is the shared window size: 32 MB on the ZedBoard setup.
	DRAMSize = 32 * 1024 * 1024
)

// CoreID is the 12-bit mesh node ID ((row<<6)|col) used in global addresses.
type CoreID uint16

// MakeCoreID builds a CoreID from absolute mesh coordinates.
func MakeCoreID(row, col int) CoreID {
	return CoreID(row<<coreColBits | col)
}

// Row returns the absolute mesh row of the core.
func (id CoreID) Row() int { return int(id) >> coreColBits }

// Col returns the absolute mesh column of the core.
func (id CoreID) Col() int { return int(id) & (1<<coreColBits - 1) }

// String formats the ID as (row,col) in chip-relative coordinates when
// possible, falling back to absolute coordinates.
func (id CoreID) String() string {
	return fmt.Sprintf("core(%d,%d)", id.Row()-FirstRow, id.Col()-FirstCol)
}

// GlobalBase returns the base global address of the core's 1 MB window.
func (id CoreID) GlobalBase() Addr { return Addr(id) << coreShift }

// Global returns the global address of local offset off in this core's SRAM.
func (id CoreID) Global(off Addr) Addr { return id.GlobalBase() | (off & (1<<coreShift - 1)) }

// Kind classifies what an address refers to.
type Kind uint8

// Address kinds returned by Map.Decode.
const (
	KindInvalid Kind = iota // outside every mapped window
	KindLocal               // 0x0000-0x7FFF alias for the issuing core's SRAM
	KindCore                // another (or the same) core's SRAM via global window
	KindDRAM                // shared off-chip memory window
)

func (k Kind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindCore:
		return "core"
	case KindDRAM:
		return "dram"
	default:
		return "invalid"
	}
}

// Target is a decoded address.
type Target struct {
	Kind Kind
	// Core identifies the owning core for KindCore targets (chip-relative
	// linear index row*cols+col).
	Core int
	// Off is the byte offset within the target's memory (SRAM or DRAM).
	Off Addr
}

// Map describes the board's address geometry: how many rows and columns
// of cores in total, anchored at (FirstRow, FirstCol), how those cores
// are partitioned into chips, plus the DRAM window.
//
// A single-chip map has ChipRows == Rows and ChipCols == Cols. On a
// multi-chip board the chips tile the mesh coordinate space contiguously
// (each chip's eCoreID origin register is programmed so that neighbouring
// chips are address-adjacent, exactly as real Parallella clusters glue
// their eMeshes together through the chip-to-chip eLinks), so the global
// address scheme stays a single flat (row<<6|col)<<20 space spanning
// every chip on the board.
type Map struct {
	Rows, Cols int
	// ChipRows, ChipCols are the per-chip core dimensions.
	ChipRows, ChipCols int
}

// NewMap returns the address map for a rows x cols chip. The 64-core
// Epiphany-IV is NewMap(8, 8).
func NewMap(rows, cols int) *Map {
	return NewBoardMap(1, 1, rows, cols)
}

// NewBoardMap returns the address map for a board of chipRows x chipCols
// chips, each coreRows x coreCols cores. The 2x2 Parallella cluster of
// E16 chips is NewBoardMap(2, 2, 4, 4).
func NewBoardMap(chipRows, chipCols, coreRows, coreCols int) *Map {
	if chipRows <= 0 || chipCols <= 0 || coreRows <= 0 || coreCols <= 0 {
		panic(fmt.Sprintf("mem: invalid board geometry %dx%d chips of %dx%d",
			chipRows, chipCols, coreRows, coreCols))
	}
	rows, cols := chipRows*coreRows, chipCols*coreCols
	if FirstRow+rows > 64 || FirstCol+cols > 64 {
		panic(fmt.Sprintf("mem: %dx%d board does not fit the 64x64 mesh address space", rows, cols))
	}
	return &Map{Rows: rows, Cols: cols, ChipRows: coreRows, ChipCols: coreCols}
}

// NumCores returns the number of cores in the map.
func (m *Map) NumCores() int { return m.Rows * m.Cols }

// ChipDims returns the per-chip core dimensions.
func (m *Map) ChipDims() (rows, cols int) { return m.ChipRows, m.ChipCols }

// ChipGrid returns how many chips the board has in each dimension.
func (m *Map) ChipGrid() (rows, cols int) {
	cr, cc := m.ChipDims()
	return m.Rows / cr, m.Cols / cc
}

// ChipCoords returns which chip (chip-grid row and column) owns the core
// with the given linear index.
func (m *Map) ChipCoords(idx int) (chipRow, chipCol int) {
	cr, cc := m.ChipDims()
	r, c := m.CoreCoords(idx)
	return r / cr, c / cc
}

// ChipOf returns the linear chip index owning the core.
func (m *Map) ChipOf(idx int) int {
	_, gc := m.ChipGrid()
	r, c := m.ChipCoords(idx)
	return r*gc + c
}

// ChipCrossings returns how many chip boundaries the XY route from src to
// dst crosses (column boundaries on the X leg plus row boundaries on the
// Y leg).
func (m *Map) ChipCrossings(src, dst int) int {
	sr, sc := m.ChipCoords(src)
	dr, dc := m.ChipCoords(dst)
	dx, dy := sc-dc, sr-dr
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// CoreIndex converts chip-relative (row, col) to the linear core index.
func (m *Map) CoreIndex(row, col int) int {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("mem: core (%d,%d) outside %dx%d chip", row, col, m.Rows, m.Cols))
	}
	return row*m.Cols + col
}

// CoreCoords converts a linear core index to chip-relative (row, col).
func (m *Map) CoreCoords(idx int) (row, col int) {
	return idx / m.Cols, idx % m.Cols
}

// CoreIDOf returns the architectural CoreID of the chip-relative core index.
func (m *Map) CoreIDOf(idx int) CoreID {
	r, c := m.CoreCoords(idx)
	return MakeCoreID(FirstRow+r, FirstCol+c)
}

// GlobalOf returns the global address of offset off in core idx's SRAM.
func (m *Map) GlobalOf(idx int, off Addr) Addr {
	if off >= SRAMSize {
		panic(fmt.Sprintf("mem: local offset %#x beyond 32 KB SRAM", off))
	}
	return m.CoreIDOf(idx).Global(off)
}

// Decode classifies a global address as seen from core self (chip-relative
// linear index). Local aliases (addresses below 1 MB) resolve to self.
func (m *Map) Decode(self int, a Addr) Target {
	if a < 1<<coreShift {
		if a < SRAMSize {
			return Target{Kind: KindLocal, Core: self, Off: a}
		}
		return Target{Kind: KindInvalid}
	}
	if a >= DRAMBase && a < DRAMBase+DRAMSize {
		return Target{Kind: KindDRAM, Off: a - DRAMBase}
	}
	id := CoreID(a >> coreShift)
	r, c := id.Row()-FirstRow, id.Col()-FirstCol
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		return Target{Kind: KindInvalid}
	}
	off := a & (1<<coreShift - 1)
	if off >= SRAMSize {
		return Target{Kind: KindInvalid}
	}
	return Target{Kind: KindCore, Core: m.CoreIndex(r, c), Off: off}
}

// BankOf returns which of the four banks a local offset falls in.
func BankOf(off Addr) int {
	if off >= SRAMSize {
		panic(fmt.Sprintf("mem: offset %#x beyond SRAM", off))
	}
	return int(off / BankSize)
}
