package enginetest_test

import (
	"testing"

	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/engine/progressive"
	"idebench/internal/enginetest"
)

// The progressive engine is the one whose concurrent results come from one
// shared scan scheduler instead of independent per-query passes; the
// scenario asserts that sharing is invisible in the results.
func TestConcurrentMultiVizProgressive(t *testing.T) {
	enginetest.ConcurrentMultiViz(t, func() engine.Engine {
		return progressive.New(progressive.Config{})
	}, true)
}

// With speculation on, link-round consumers share the same scanner as the
// foreground queries; results must still be independent-scan identical.
func TestConcurrentMultiVizProgressiveSpeculative(t *testing.T) {
	enginetest.ConcurrentMultiViz(t, func() engine.Engine {
		return progressive.New(progressive.Config{Speculate: true})
	}, true)
}

// exactdb runs each query as its own parallel scan; it pins down that the
// scenario itself is engine-agnostic.
func TestConcurrentMultiVizExactDB(t *testing.T) {
	enginetest.ConcurrentMultiViz(t, func() engine.Engine {
		return exactdb.New()
	}, true)
}
