package isa

import "fmt"

// Validate checks a schedule for structural errors: register numbers out
// of range, register-pair operations running off the end of the file, and
// loads/stores of impossible widths. The kernels do not call it: tests
// validate each schedule the builders emit, so a builder bug fails a test
// rather than silently mis-costing a kernel.
func Validate(prog []Op) error {
	for i, o := range prog {
		if o.writesDst() && int(o.Dst) >= NumRegs {
			return fmt.Errorf("isa: op %d (%v) writes r%d, beyond the register file", i, o, o.Dst)
		}
		for _, r := range o.Src {
			if int(r) >= NumRegs {
				return fmt.Errorf("isa: op %d (%v) reads r%d, beyond the register file", i, o, r)
			}
		}
		if o.Kind == LOAD64 && int(o.Dst)+1 >= NumRegs {
			return fmt.Errorf("isa: op %d (%v) loads a pair ending beyond r63", i, o)
		}
		if o.Kind == STORE64 && len(o.Src) > 0 && int(o.Src[0])+1 >= NumRegs {
			return fmt.Errorf("isa: op %d (%v) stores a pair ending beyond r63", i, o)
		}
	}
	return nil
}
