// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine executes simulated processes (Procs) one at a time in strict
// virtual-time order. Each Proc is an iter.Pull coroutine: it still owns
// a goroutine, but the engine switches to it and back directly, with no
// hand-off through the Go scheduler. Exactly one Proc runs at any instant,
// so shared simulation state needs no locking and every run of the same
// program produces identical results.
//
// An engine is one event heap, executed in (time, seq) order: events
// at the same virtual time run in creation order. A multi-chip board
// runs on one engine like a single chip does.
//
// Time is measured in integer units of 1/3 nanosecond. This unit was chosen
// so that all of the calibrated Epiphany quantities are exact integers:
// one 600 MHz core cycle is exactly 5 units, the 600 MB/s eLink moves one
// byte per 5 units, and the 2 GB/s DMA engine moves an 8-byte beat in 12
// units. See the Cycle and Nanosecond constants.
package sim

import "fmt"

// Time is a point in (or duration of) virtual time, in units of 1/3 ns.
type Time uint64

// Fundamental time units. One core clock cycle at 600 MHz is exactly
// 5/3 ns = 5 units, so all cycle-accounting is exact.
const (
	// Nanosecond is the number of Time units in one nanosecond.
	Nanosecond Time = 3
	// Microsecond is the number of Time units in one microsecond.
	Microsecond Time = 1000 * Nanosecond
	// Millisecond is the number of Time units in one millisecond.
	Millisecond Time = 1000 * Microsecond
	// Second is the number of Time units in one second.
	Second Time = 1000 * Millisecond
	// Cycle is the duration of one 600 MHz Epiphany core clock cycle.
	Cycle Time = 5
)

// Cycles converts a whole number of 600 MHz core cycles to a Time duration.
func Cycles(n uint64) Time { return Time(n) * Cycle }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds reports t as floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// CoreCycles reports t as floating-point 600 MHz core cycles.
func (t Time) CoreCycles() float64 { return float64(t) / float64(Cycle) }

// String formats the time with an adaptive unit for debugging output.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%.6gns", t.Nanoseconds())
	}
}
