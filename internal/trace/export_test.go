package trace

// OracleDecode exposes the reflective oracle to the external tests, which
// collect real batches through packages that import this one.
var OracleDecode = oracleDecode
