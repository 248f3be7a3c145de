package main

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs/trace"
)

// The benchmark's own span names. Per-layer times are differences
// between these spans only; whatever spans the program itself records
// once a request's context carries a trace binding are skipped over, so
// later in-program tracing changes cannot move a layer's number.
const (
	spanClient     = "client"
	spanGateway    = "gateway.handler"
	spanUpstream   = "gateway.upstream"
	spanReplica    = "serve.handler"
	spanEvalPrefix = "serve.eval." // + request kind
	spanDistRun    = "dist.run"
	spanWorkerEval = "dist.worker_eval"
)

// benchSpan reports whether name is one of the benchmark's own spans.
func benchSpan(name string) bool {
	switch name {
	case spanClient, spanGateway, spanUpstream, spanReplica, spanDistRun, spanWorkerEval:
		return true
	}
	return strings.HasPrefix(name, spanEvalPrefix)
}

// spanNode is one kept span in a request's tree. Children are the
// nearest kept descendants.
type spanNode struct {
	name       string
	start, end int64 // microseconds
	children   []*spanNode
}

func (n *spanNode) dur() int64 { return n.end - n.start }

// covered is the part of n's interval that its children cover: the
// length of the union of the child intervals clipped to n.
func (n *spanNode) covered() int64 {
	if len(n.children) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		lo, hi := max(c.start, n.start), min(c.end, n.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, edge int64
	for i, v := range ivs {
		if i == 0 || v.lo > edge {
			total += v.hi - v.lo
			edge = v.hi
		} else if v.hi > edge {
			total += v.hi - edge
			edge = v.hi
		}
	}
	return total
}

// self is a span's duration minus the part its children cover.
func (n *spanNode) self() int64 { return n.dur() - n.covered() }

// attribute splits the root's wall-clock time among the spans of its
// tree, in microseconds: self[name] gets each span's own share, and
// total[name] the share of everything under it, itself included. A
// span owns its self time; children that ran in parallel share the
// interval they jointly cover in proportion to their durations, so the
// self shares of a tree sum to the root's duration however much its
// branches overlapped.
func (n *spanNode) attribute(weight float64, self, total map[string]float64) {
	self[n.name] += weight * float64(n.self())
	total[n.name] += weight * float64(n.dur())
	var sum int64
	for _, c := range n.children {
		sum += c.dur()
	}
	if sum == 0 {
		return
	}
	w := weight * float64(n.covered()) / float64(sum)
	for _, c := range n.children {
		c.attribute(w, self, total)
	}
}

// forest groups spans by trace and links the kept ones into trees,
// re-parenting each kept span to its nearest kept ancestor. A trace
// whose kept spans do not form exactly one tree is dropped: its request
// was cut by the window edge.
func forest(spans []trace.SpanData, keep func(name string) bool) []*spanNode {
	type rec struct {
		sd   trace.SpanData
		node *spanNode
	}
	byTrace := map[string]map[string]*rec{}
	var order []string
	for _, sd := range spans {
		m := byTrace[sd.Trace]
		if m == nil {
			m = map[string]*rec{}
			byTrace[sd.Trace] = m
			order = append(order, sd.Trace)
		}
		r := &rec{sd: sd}
		if keep(sd.Name) {
			r.node = &spanNode{name: sd.Name, start: sd.StartUS, end: sd.StartUS + sd.DurUS}
			// Time a span held for its parent's own work goes back to the
			// parent: the span ends that much earlier.
			for _, a := range sd.Attrs {
				if held, err := strconv.ParseInt(a.V, 10, 64); a.K == heldAttr && err == nil {
					r.node.end = max(r.node.start, r.node.end-held)
				}
			}
		}
		m[sd.ID] = r
	}
	var roots []*spanNode
	for _, id := range order {
		m := byTrace[id]
		var root *spanNode
		ok := true
		for _, r := range m {
			if r.node == nil {
				continue
			}
			p := m[r.sd.Parent]
			for p != nil && p.node == nil {
				p = m[p.sd.Parent]
			}
			switch {
			case p != nil:
				p.node.children = append(p.node.children, r.node)
			case root == nil:
				root = r.node
			default:
				ok = false
			}
		}
		if ok && root != nil {
			roots = append(roots, root)
		}
	}
	return roots
}
