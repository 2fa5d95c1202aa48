// Fixtures for the lint:ignore audit: suppressions must name a registered
// analyzer and carry a reason. Expected findings are asserted by
// TestLintIgnoreAudit (not via want annotations — the findings land on the
// directive comment's own line, which a line comment cannot share with a
// want comment).
package lintignore

func typoedName() int {
	//lint:ignore goleek the analyzer is spelled goleak; this suppresses nothing
	return 1
}

func missingReason() int {
	//lint:ignore goleak
	return 2
}

func unknownInList() int {
	//lint:ignore lockorder,ctxpol the second name is no analyzer
	return 3
}

func bareDirective() int {
	//lint:ignore
	return 4
}

func validSuppression() int {
	//lint:ignore goleak a correctly-formed directive produces no audit finding
	return 5
}

func wildcard() int {
	//lint:ignore all wildcard suppressions are valid
	return 6
}
