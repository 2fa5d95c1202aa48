package dataflow

import (
	"testing"

	"gradoop/internal/leakcheck"
)

// TestMain fails the package's run if it leaves a goroutine of the module
// running or a descriptor open.
func TestMain(m *testing.M) { leakcheck.Main(m) }
