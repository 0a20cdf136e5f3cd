package availability

import (
	"testing"

	"cdsf/internal/pmf"
	"cdsf/internal/rng"
)

// wrapModel decorates another Model without re-implementing GroupScoped,
// exposing the inner model only through Unwrap.
type wrapModel struct{ inner Model }

func (w wrapModel) NewProcess(r *rng.Source) Process { return w.inner.NewProcess(r) }
func (w wrapModel) Name() string                     { return "wrap(" + w.inner.Name() + ")" }
func (w wrapModel) Unwrap() Model                    { return w.inner }

// opaqueModel decorates another Model but does not implement Wrapper.
type opaqueModel struct{ inner Model }

func (o opaqueModel) NewProcess(r *rng.Source) Process { return o.inner.NewProcess(r) }
func (o opaqueModel) Name() string                     { return "opaque" }

func TestAsGroupScoped(t *testing.T) {
	point := pmf.Point(1)
	shared := &SharedLoad{Shared: point, Idio: point, Mix: 1, Interval: 10, Persistence: 0}

	if g, ok := AsGroupScoped(shared); !ok || g != GroupScoped(shared) {
		t.Error("direct SharedLoad not detected")
	}
	if _, ok := AsGroupScoped(Static{PMF: point}); ok {
		t.Error("Static reported group-scoped")
	}

	// One and two wrapper layers still expose the inner SharedLoad.
	for _, m := range []Model{
		wrapModel{inner: shared},
		wrapModel{inner: wrapModel{inner: shared}},
	} {
		g, ok := AsGroupScoped(m)
		if !ok {
			t.Fatalf("%s: group-scoped model lost behind wrapper", m.Name())
		}
		if g != GroupScoped(shared) {
			t.Errorf("%s: wrong GroupScoped returned", m.Name())
		}
	}

	// A wrapper around a non-group-scoped model stays non-group-scoped.
	if _, ok := AsGroupScoped(wrapModel{inner: Static{PMF: point}}); ok {
		t.Error("wrapped Static reported group-scoped")
	}
	// A decorator without Unwrap cannot be seen through; it must not
	// panic or loop.
	if _, ok := AsGroupScoped(opaqueModel{inner: shared}); ok {
		t.Error("opaque decorator unexpectedly detected (no Unwrap)")
	}
	if _, ok := AsGroupScoped(nil); ok {
		t.Error("nil model reported group-scoped")
	}
}
