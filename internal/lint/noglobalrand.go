package lint

import (
	"go/ast"
	"go/types"

	"rmscale/internal/lint/analysis"
)

// randConstructors are the math/rand and math/rand/v2 identifiers
// that build a new generator rather than touching the shared global
// one. They are still flagged — every RNG in sim-visible code must
// descend from a sim.Source named stream — but with a message that
// points at the sanctioned construction site, which carries a
// //lint:allow annotation.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// NoGlobalRand forbids the process-global math/rand state and ad-hoc
// generator construction in simulation-visible packages. Every draw
// must come from a sim.Source named stream, so that components
// consume independent deterministic sequences regardless of the order
// other components draw in.
func NoGlobalRand() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "noglobalrand",
		Doc:  "forbid global math/rand functions and ad-hoc rand.New in sim-visible packages; randomness comes from sim.RNG named streams",
	}
	a.Run = func(p *analysis.Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				path, name, ok := p.SelectorOf(sel)
				if !ok || path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				// Referring to the types (rand.Rand, rand.Source) is
				// fine: the stream wrappers store them.
				if obj := p.Info.Uses[sel.Sel]; obj != nil {
					if _, isType := obj.(*types.TypeName); isType {
						return true
					}
				}
				if randConstructors[name] {
					p.Reportf(sel.Pos(),
						"rand.%s builds an RNG outside the named-stream factory; draw from sim.RNG streams (or annotate the factory with //lint:allow noglobalrand <why>)", name)
				} else {
					p.Reportf(sel.Pos(),
						"rand.%s uses the process-global RNG; sim-visible code must draw from sim.RNG named streams", name)
				}
				return true
			})
		}
		return nil
	}
	return a
}
