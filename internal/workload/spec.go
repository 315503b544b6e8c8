package workload

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"epiphany/internal/core"
	"epiphany/internal/names"
)

// maxKeyValue bounds integer key values: far above every shape the
// 32 KB-per-core scratchpad or the 32 MB shared window admits, and low
// enough that no size product a config derives from one overflows.
const maxKeyValue = 1 << 16

// value is one config field a key sets, in the shape of flag.Value:
// String renders it canonically and Set parses a spelling into it.
type value interface {
	String() string
	Set(s string) error
	syntax() string // the value's form in key listings
}

// key names one overridable field of a config of type C.
type key[C any] struct {
	name  string
	field func(*C) value
}

var stencilKeys = []key[core.StencilConfig]{
	{"rows", func(c *core.StencilConfig) value { return (*intValue)(&c.Rows) }},
	{"cols", func(c *core.StencilConfig) value { return (*intValue)(&c.Cols) }},
	{"iters", func(c *core.StencilConfig) value { return (*intValue)(&c.Iters) }},
	{"group", func(c *core.StencilConfig) value { return dimsValue{&c.GroupRows, &c.GroupCols} }},
	{"comm", func(c *core.StencilConfig) value { return boolField(&c.Comm) }},
	{"tuned", func(c *core.StencilConfig) value { return boolField(&c.Tuned) }},
	{"direct", func(c *core.StencilConfig) value { return boolField(&c.DirectComm) }},
	{"shape", func(c *core.StencilConfig) value {
		return choice[core.Shape]{&c.Shape, []string{"plus", "cross"}, []core.Shape{core.Plus, core.Cross}}
	}},
}

var matmulKeys = []key[core.MatmulConfig]{
	{"m", func(c *core.MatmulConfig) value { return (*intValue)(&c.M) }},
	{"n", func(c *core.MatmulConfig) value { return (*intValue)(&c.N) }},
	{"k", func(c *core.MatmulConfig) value { return (*intValue)(&c.K) }},
	{"g", func(c *core.MatmulConfig) value { return (*intValue)(&c.G) }},
	{"tuned", func(c *core.MatmulConfig) value { return boolField(&c.Tuned) }},
	{"offchip", func(c *core.MatmulConfig) value { return boolField(&c.OffChip) }},
	{"edge", func(c *core.MatmulConfig) value { return (*intValue)(&c.OffChipEdge) }},
	{"verify", func(c *core.MatmulConfig) value { return boolField(&c.Verify) }},
	// "" and "cannon" are one algorithm; cannon parses to "".
	{"algo", func(c *core.MatmulConfig) value {
		return choice[string]{&c.Algorithm, []string{"cannon", "summa"}, []string{"", "summa"}}
	}},
}

var streamKeys = []key[core.StreamStencilConfig]{
	{"grid", func(c *core.StreamStencilConfig) value { return dimsValue{&c.GlobalRows, &c.GlobalCols} }},
	{"block", func(c *core.StreamStencilConfig) value { return dimsValue{&c.BlockRows, &c.BlockCols} }},
	{"group", func(c *core.StreamStencilConfig) value { return dimsValue{&c.GroupRows, &c.GroupCols} }},
	{"iters", func(c *core.StreamStencilConfig) value { return (*intValue)(&c.Iters) }},
	{"t", func(c *core.StreamStencilConfig) value { return (*intValue)(&c.TBlock) }},
}

// Parse resolves a workload spec, NAME[/key=value]...: the one spelling
// of a kernel configuration that ParseWorkload, the sweep workload axis,
// the serve daemon's JobSpec and epiphany-sweep -workloads share. NAME
// is a registered workload, returned itself when no keys follow. Each
// key overrides one config field, from the key table of the preset's
// type above; seeds are not keys (WithSeed sets them) and other types
// take none. Overrides yield a copy of the preset whose Name is the
// canonical spelling - keys in table order, values re-rendered, values
// equal to the preset's dropped - so a spec restating its preset
// ("stencil-tuned/rows=40") is the preset. Unknown names and keys get a
// "did you mean" suggestion. Parse checks spelling only: whether the
// shape fits a board is Validate's call, made after topology fitting.
func Parse(spec string) (Workload, error) {
	base, overrides, hasOverrides := strings.Cut(spec, "/")
	w, ok := ByName(base)
	if !ok {
		return nil, names.Unknown("workload", base, Names())
	}
	if !hasOverrides {
		return w, nil
	}
	var (
		respelled Workload
		suffix    string
		err       error
	)
	switch p := w.(type) {
	case *Stencil:
		c := *p
		suffix, err = override(spec, "stencil", overrides, stencilKeys, &p.Config, &c.Config)
		c.Label, respelled = base+suffix, &c
	case *Matmul:
		c := *p
		suffix, err = override(spec, "matmul", overrides, matmulKeys, &p.Config, &c.Config)
		c.Label, respelled = base+suffix, &c
	case *StreamStencil:
		c := *p
		suffix, err = override(spec, "stream-stencil", overrides, streamKeys, &p.Config, &c.Config)
		c.Label, respelled = base+suffix, &c
	default:
		err = fmt.Errorf("epiphany: workload spec %q: %q takes no /key=value overrides (only the built-in stencil, matmul and stream-stencil kinds do)", spec, base)
	}
	if err != nil {
		return nil, err
	}
	if suffix == "" {
		return w, nil
	}
	return respelled, nil
}

// override applies the "/"-separated key=value list to cfg (a copy of
// preset) and returns the canonical suffix: "/key=value" for each key
// whose value now differs from the preset's, in table order.
func override[C any](spec, kind, overrides string, keys []key[C], preset, cfg *C) (string, error) {
	seen := make([]bool, len(keys))
	for kv := range strings.SplitSeq(overrides, "/") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", fmt.Errorf("epiphany: workload spec %q: override %q is not key=value (empty or stray \"/\"?)", spec, kv)
		}
		i := slices.IndexFunc(keys, func(key key[C]) bool { return key.name == k })
		if i < 0 {
			known := make([]string, len(keys))
			for j, key := range keys {
				known[j] = key.name
			}
			return "", names.Unknown(kind+" key", k, known)
		}
		if seen[i] {
			return "", fmt.Errorf("epiphany: workload spec %q: key %q given twice", spec, k)
		}
		seen[i] = true
		if err := keys[i].field(cfg).Set(v); err != nil {
			return "", fmt.Errorf("epiphany: workload spec %q: %s=%s: %v", spec, k, v, err)
		}
	}
	var b strings.Builder
	for _, k := range keys {
		if s := k.field(cfg).String(); s != k.field(preset).String() {
			fmt.Fprintf(&b, "/%s=%s", k.name, s)
		}
	}
	return b.String(), nil
}

// KeyUsage lists, one line per built-in kind, the /key=value overrides
// its presets accept - the listing the CLIs print under -list.
func KeyUsage() []string {
	return []string{
		keyUsage("stencil", stencilKeys),
		keyUsage("matmul", matmulKeys),
		keyUsage("stream-stencil", streamKeys),
	}
}

func keyUsage[C any](kind string, keys []key[C]) string {
	var zero C
	line := kind + ":"
	for _, k := range keys {
		line += " " + k.name + "=" + k.field(&zero).syntax()
	}
	return line
}

type intValue int

func (v *intValue) String() string { return strconv.Itoa(int(*v)) }
func (v *intValue) syntax() string { return "N" }
func (v *intValue) Set(s string) error {
	n, err := parseCount(s)
	if err != nil {
		return err
	}
	*v = intValue(n)
	return nil
}

// parseCount parses an integer key value in [0, maxKeyValue].
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("want an integer")
	}
	if n < 0 || n > maxKeyValue {
		return 0, fmt.Errorf("%d outside [0, %d]", n, maxKeyValue)
	}
	return n, nil
}

// dimsValue is an "RxC" pair of config fields.
type dimsValue struct{ rows, cols *int }

func (v dimsValue) String() string { return fmt.Sprintf("%dx%d", *v.rows, *v.cols) }
func (v dimsValue) syntax() string { return "RxC" }
func (v dimsValue) Set(s string) error {
	r, c, ok := strings.Cut(s, "x")
	if !ok {
		return fmt.Errorf("want ROWSxCOLS")
	}
	rows, err := parseCount(r)
	if err != nil {
		return err
	}
	cols, err := parseCount(c)
	if err != nil {
		return err
	}
	*v.rows, *v.cols = rows, cols
	return nil
}

func boolField(p *bool) value { return choice[bool]{p, []string{"true", "false"}, []bool{true, false}} }

// choice is an enumerated config field: names[i] spells vals[i].
type choice[T comparable] struct {
	p     *T
	names []string
	vals  []T
}

func (v choice[T]) syntax() string { return strings.Join(v.names, "|") }
func (v choice[T]) String() string {
	if i := slices.Index(v.vals, *v.p); i >= 0 {
		return v.names[i]
	}
	return fmt.Sprint(*v.p) // a Go-built config outside the enumeration
}
func (v choice[T]) Set(s string) error {
	i := slices.Index(v.names, s)
	if i < 0 {
		return fmt.Errorf("want %s", strings.Join(v.names, " or "))
	}
	*v.p = v.vals[i]
	return nil
}
