package core

// What the external test package (core_test, which may import benchkit for
// the paper's queries) borrows from this one's test helpers.
var (
	ReferenceKeys = referenceKeys
	ResultKeys    = resultKeys
	RandomQuery   = randomQuery
	RandomGraph   = randomGraph
)
