package lint_test

import (
	"testing"

	"gradoop/internal/lint"
	"gradoop/internal/lint/analysis"
	"gradoop/internal/lint/analysistest"
)

// TestAnalyzers runs each analyzer against its annotated fixture package
// under testdata/src. The ctxpoll fixture is type-checked under the real
// dataflow import path because that analyzer matches unexported engine API.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer   *analysis.Analyzer
		dir        string
		importPath string
	}{
		{lint.PartitionCaptureAnalyzer, "partitioncapture", ""},
		{lint.CtxPollAnalyzer, "ctxpoll", "gradoop/internal/dataflow"},
		{lint.ObsRegisterAnalyzer, "obsregister", ""},
		{lint.LockOrderAnalyzer, "lockorder", ""},
		{lint.GoLeakAnalyzer, "goleak", ""},
		{lint.WireSymAnalyzer, "wiresym", "gradoop/internal/embedding"},
		{lint.WireSymAnalyzer, "wiresymframe", "gradoop/internal/cluster"},
		{lint.CloseOnErrAnalyzer, "closeonerr", ""},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			analysistest.Run(t, tc.analyzer, tc.dir, tc.importPath)
		})
	}
}
