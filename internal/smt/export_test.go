package smt

// Test-side seams for the external test package (canon_corpus_test.go),
// which can import the analyzer and the solver where this package cannot.
var (
	CheckCanonAgainstOracle = checkCanonAgainstOracle
	GenFormula              = genFormula
)
