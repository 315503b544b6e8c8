package workload

import (
	"reflect"
	"strings"
	"testing"

	"epiphany/internal/core"
)

// A registered workload of a custom type, which takes no keys.
func init() { Register(&probe{name: "test-spec-custom"}) }

// TestParseRejects: malformed specs return errors - never a panic, never
// a workload - with a message naming the problem.
func TestParseRejects(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"", `unknown workload ""`},
		{"stencil-tunned", `did you mean "stencil-tuned"`},
		{"stencil-tunned/rows=20", `unknown workload "stencil-tunned"`},
		{"stencil-tuned/rws=20", `unknown stencil key "rws" (did you mean "rows"`},
		{"matmul-cannon/rows=20", `unknown matmul key "rows"`},
		{"stream-stencil/seed=3", `unknown stream-stencil key "seed"`},
		{"stencil-tuned/rows=abc", "rows=abc: want an integer"},
		{"stencil-tuned/rows=", "rows=: want an integer"},
		{"stencil-tuned/rows=-4", "outside [0, 65536]"},
		{"stencil-tuned/iters=99999999999999999999", "want an integer"},
		{"stencil-tuned/group=8", "group=8: want ROWSxCOLS"},
		{"stencil-tuned/group=8xz", "want an integer"},
		{"stencil-tuned/comm=maybe", "want true or false"},
		{"stencil-tuned/comm=1", "want true or false"},
		{"stencil-tuned/shape=star", "want plus or cross"},
		{"matmul-cannon/algo=strassen", "want cannon or summa"},
		{"stencil-tuned/rows=20/rows=20", `key "rows" given twice`},
		{"stream-stencil/t=2/grid=64x64/t=4", `key "t" given twice`},
		{"stencil-tuned/", "is not key=value"},
		{"stencil-tuned//rows=20", "is not key=value"},
		{"stencil-tuned/rows=20/", "is not key=value"},
		{"stencil-tuned/rows", `override "rows" is not key=value`},
		{"test-spec-custom/x=1", "takes no /key=value overrides"},
		{"test-spec-custom/", "takes no /key=value overrides"},
	} {
		w, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) = %v, want error", tc.spec, w.Name())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q, want it to contain %q", tc.spec, err, tc.want)
		}
	}
}

// TestParseCanonical: overrides land in the config, the Name is the
// canonical spelling (table order, preset values dropped, values
// re-rendered), and a spec restating the preset is the preset itself.
func TestParseCanonical(t *testing.T) {
	for _, name := range Names() {
		if w, err := Parse(name); err != nil || w.Name() != name {
			t.Errorf("Parse(%q) = %v, %v; want the registered workload", name, w, err)
		}
	}
	// The serve daemon parses every job's workload: a plain name must
	// stay a bare registry lookup.
	if n := testing.AllocsPerRun(100, func() { Parse("stencil-tuned") }); n != 0 {
		t.Errorf("Parse of a plain name allocates %v times", n)
	}
	preset, _ := ByName("stencil-tuned")
	for _, spec := range []string{"stencil-tuned/rows=40", "stencil-tuned/rows=040/comm=true/shape=plus/group=2x2"} {
		if w, err := Parse(spec); err != nil || w != preset {
			t.Errorf("Parse(%q) = %v, %v; want the registered preset itself", spec, w, err)
		}
	}
	summa, _ := ByName("matmul-summa")
	if w, err := Parse("matmul-summa/algo=summa"); err != nil || w != summa {
		t.Errorf("restated algo: %v, %v", w, err)
	}
	cannon, _ := ByName("matmul-cannon")
	if w, err := Parse("matmul-cannon/algo=cannon"); err != nil || w != cannon {
		t.Errorf("algo=cannon on a cannon preset: %v, %v", w, err)
	}

	for _, tc := range []struct {
		spec, name string
		check      func(Workload) bool
	}{
		{"stencil-tuned/shape=cross/rows=+20/comm=false/group=4x2", "stencil-tuned/rows=20/group=4x2/comm=false/shape=cross",
			func(w Workload) bool {
				c := w.(*Stencil).Config
				return c.Rows == 20 && c.GroupRows == 4 && c.GroupCols == 2 && !c.Comm && c.Shape == core.Cross && c.Seed == 11
			}},
		{"matmul-summa/algo=cannon/g=2", "matmul-summa/g=2/algo=cannon",
			func(w Workload) bool { c := w.(*Matmul).Config; return c.G == 2 && c.Algorithm == "" }},
		{"matmul-offchip/k=512/n=512/m=512/edge=0", "matmul-offchip/m=512/n=512/k=512",
			func(w Workload) bool { c := w.(*Matmul).Config; return c.M == 512 && c.OffChip && c.G == 8 }},
		{"stream-stencil/t=4/block=8x8", "stream-stencil/block=8x8/t=4",
			func(w Workload) bool { c := w.(*StreamStencil).Config; return c.TBlock == 4 && c.BlockRows == 8 }},
	} {
		w, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if w.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, w.Name(), tc.name)
		}
		if !tc.check(w) {
			t.Errorf("Parse(%q) config wrong: %+v", tc.spec, w)
		}
	}
	if got, _ := ByName("stencil-tuned"); got.(*Stencil).Config.Rows != 40 || got.Name() != "stencil-tuned" {
		t.Fatal("Parse mutated the registered preset")
	}
}

// TestParsedDegenerateShapesFitWithoutPanic: spec values reach
// FitTopology and UsedCores before Validate runs, so a zero block or
// group must fall through to Validate's error, not a division by zero.
func TestParsedDegenerateShapesFitWithoutPanic(t *testing.T) {
	for _, spec := range []string{
		"stream-stencil/block=0x0", "stream-stencil/group=0x0/grid=0x0",
		"stencil-tuned/group=0x0", "matmul-offchip/g=0/m=0",
	} {
		w, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		UsedCores(w, 8, 8)
		if err := w.(TopologyFitter).FitTopology(8, 8).Validate(); err == nil {
			t.Errorf("%s: fitted config validated", spec)
		}
	}
}

func TestRegisterRejectsSlashNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error(`Register of a name containing "/" did not panic`)
		}
	}()
	Register(&probe{name: "test/slash"})
}

func TestKeyUsage(t *testing.T) {
	got := strings.Join(KeyUsage(), "\n")
	want := "stencil: rows=N cols=N iters=N group=RxC comm=true|false tuned=true|false direct=true|false shape=plus|cross\n" +
		"matmul: m=N n=N k=N g=N tuned=true|false offchip=true|false edge=N verify=true|false algo=cannon|summa\n" +
		"stream-stencil: grid=RxC block=RxC group=RxC iters=N t=N"
	if got != want {
		t.Errorf("KeyUsage:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzWorkloadSpec: the parser never panics, an accepted spec's
// canonical spelling (its Name) parses back to the same name and
// config, and every registered name parses to itself.
func FuzzWorkloadSpec(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	for _, seed := range []string{
		"stencil-tuned/rows=80/group=8x8/iters=50",
		"stencil-tuned/shape=cross/comm=false/direct=true",
		"stencil-tuned/comm=0/direct=TRUE",
		"stencil-naive/tuned=true/rows=40",
		"matmul-offchip/m=512/n=512/k=512",
		"matmul-summa/algo=cannon/g=2/verify=false",
		"matmul-cannon/edge=24/offchip=true",
		"stream-stencil/grid=1024x1024/block=32x32/iters=32/t=4",
		"stream-stencil/group=+4x04",
		"stencil-tuned/rows=1/rows=2",
		"stencil-tuned//",
		"test-spec-custom/x=1",
		"stencil-tunned",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := Parse(spec)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		again, err := Parse(w.Name())
		if err != nil {
			t.Fatalf("canonical spelling %q of %q rejected: %v", w.Name(), spec, err)
		}
		if again.Name() != w.Name() || !reflect.DeepEqual(again, w) {
			t.Fatalf("%q: parse -> Name -> parse is not a fixpoint:\n%#v\n%#v", spec, w, again)
		}
		if _, registered := ByName(spec); registered && w.Name() != spec {
			t.Fatalf("registered name %q parsed to %q", spec, w.Name())
		}
	})
}
