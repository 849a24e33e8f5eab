package analyzers_test

import (
	"testing"

	"arb/internal/lint"
	"arb/internal/lint/analyzers"
)

// Each fixture package is typechecked under a synthetic import path that
// puts it in the analyzer's scope, then the analyzer's diagnostics are
// matched exactly — both directions — against the // want markers.

func TestCtxflowFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.Ctxflow, "testdata/ctxflow", "arb/internal/core/ctxfixture")
}

func TestLockDisciplineFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.LockDiscipline, "testdata/lockdiscipline", "arb/internal/core/lockfixture")
}

func TestCloseCheckFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.CloseCheck, "testdata/closecheck", "arb/internal/core/closefixture")
}

func TestLockOrderFixture(t *testing.T) {
	lint.RunFixture(t, analyzers.LockOrder, "testdata/lockorder", "arb/internal/vstore/lockfixture")
}
