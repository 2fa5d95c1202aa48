package planner

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"gradoop/internal/cypher"
	"gradoop/internal/operators"
)

// Fingerprint returns a deterministic canonical key for the plan: an FNV-64a
// hash over the operator tree's structure (descriptions in tree order). Two
// plans of the same query template under the same semantics and
// statistics produce the same fingerprint; the session's plan cache and the
// /explain endpoint report it.
func (p *QueryPlan) Fingerprint() string { return p.Render(nil) }

// Render is Fingerprint, and when labels is not nil it also fills labels with
// every operator's Description, in the same walk: what a traced run calls the
// operators (operators.Labeler).
func (p *QueryPlan) Render(labels map[operators.Operator]string) string {
	h := fnv.New64a()
	var walk func(op operators.Operator)
	walk = func(op operators.Operator) {
		d := op.Description()
		if labels != nil {
			labels[op] = d
		}
		io.WriteString(h, d)
		io.WriteString(h, "(")
		for _, c := range op.Children() {
			walk(c)
		}
		io.WriteString(h, ")")
	}
	walk(p.Root)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Rebind attaches another run to a plan: the same operator tree, estimates
// and labels, run over access with the binding's query elements and parameter
// values in place of the planned ones. The tree is shared by every run of the
// query and written by none of them, so Rebind builds no operator, and
// Explain of the plan it returns is the template's.
func Rebind(p *QueryPlan, access GraphAccess, b *cypher.Binding) (*QueryPlan, error) {
	if access == nil {
		return nil, errors.New("planner: rebind: no graph access")
	}
	return &QueryPlan{Root: p.Root, Estimates: p.Estimates, Labels: p.Labels, access: access, binding: b}, nil
}
