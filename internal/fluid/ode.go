// Package fluid implements the fluid-model baseline the paper contrasts
// its protocol-level model against (Section 2.2): the Qiu–Srikant
// deterministic fluid model of BitTorrent-like networks, integrated with
// the adaptive Dormand–Prince solver in rk45.go. Fluid models capture
// aggregate population dynamics but, as the paper argues, hide protocol
// detail — they predict no dependence on the neighbor-set size or piece
// count, which is exactly what the multiphased model adds.
package fluid

// Derivs evaluates a vector field: it must fill dydt from (t, y) without
// retaining either slice.
type Derivs func(t float64, y, dydt []float64)
