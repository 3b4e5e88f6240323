package staticlint

// Rescan re-runs the whole-program scan (call-graph resolution, SCC
// summaries, splice) over the already parsed and type-checked tree, so
// the external determinism test can repeat the map-heavy half of Load
// without paying for the type check twenty times.
func (p *Program) Rescan() { p.facts = p.scan() }
