package lint_test

import (
	"path/filepath"
	"testing"

	"tsperr/internal/lint"
	"tsperr/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestMapIterOrder(t *testing.T) {
	linttest.Run(t, lint.MapIterOrder, fixture("mapiterorder"), "fixture/mapiterorder")
}

func TestCtxFlow(t *testing.T) {
	// The fixture is checked under a core import path so it falls inside
	// CtxFlowScope.
	linttest.Run(t, lint.CtxFlow, fixture("ctxflow"), "tsperr/internal/core")
}

func TestCtxFlowOutOfScope(t *testing.T) {
	// The same fixture outside the scoped packages must produce nothing:
	// wants are only honored when the analyzer reports, so run directly.
	pkg, diags := linttest.MustRun(t, lint.CtxFlow, fixture("ctxflow"), "fixture/ctxflow")
	if len(diags) != 0 {
		t.Fatalf("ctxflow out of scope reported %d diagnostics in %s, want 0: %v", len(diags), pkg.PkgPath, diags)
	}
}

func TestGuardedField(t *testing.T) {
	linttest.Run(t, lint.GuardedField, fixture("guardedfield"), "fixture/guardedfield")
}

func TestDetSource(t *testing.T) {
	// The fixture is checked under a montecarlo import path so it falls
	// inside DetSourceScope.
	linttest.Run(t, lint.DetSource, fixture("detsource"), "tsperr/internal/montecarlo")
}

func TestDetSourceOutOfScope(t *testing.T) {
	pkg, diags := linttest.MustRun(t, lint.DetSource, fixture("detsource"), "fixture/detsource")
	if len(diags) != 0 {
		t.Fatalf("detsource out of scope reported %d diagnostics in %s, want 0: %v", len(diags), pkg.PkgPath, diags)
	}
}
