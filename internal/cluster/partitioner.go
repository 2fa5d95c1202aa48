package cluster

import "gradoop/internal/dataflow"

// Partitioner assigns the job's logical partitions to the attempt's live
// workers. The assignment is pure policy: any assignment produces the
// byte-identical result (dataflow.Transport's SPMD contract), so the
// partitioner only decides data placement and therefore how much state
// moves when the roster changes.
type Partitioner interface {
	// Assign returns owner[p] = roster index for each of the partitions,
	// given the attempt's roster node IDs. len(nodes) >= 1.
	Assign(partitions int, nodes []string) []int
	// Name identifies the policy in flags and reports.
	Name() string
}

// RendezvousPartitioner implements highest-random-weight (rendezvous)
// hashing: partition p goes to the node maximizing a stable hash of
// (node, p). When a worker dies, exactly its partitions move to survivors
// and every other partition stays put — the property that keeps recovery
// re-execution from reshuffling the whole cluster's ownership.
type RendezvousPartitioner struct{}

// Name implements Partitioner.
func (RendezvousPartitioner) Name() string { return "rendezvous" }

// Assign implements Partitioner.
func (RendezvousPartitioner) Assign(partitions int, nodes []string) []int {
	owner := make([]int, partitions)
	for p := range owner {
		best, bestW := 0, uint64(0)
		for i, node := range nodes {
			// Remix the combined node/partition hash so pairs sharing a node
			// or a partition stay uncorrelated.
			w := dataflow.StableHash(dataflow.StableHash(node) + uint64(p))
			if w > bestW || (w == bestW && nodes[i] < nodes[best]) {
				best, bestW = i, w
			}
		}
		owner[p] = best
	}
	return owner
}

// PartitionerByName resolves a placement policy by name: "" and
// "rendezvous" are RendezvousPartitioner, the one policy there is.
func PartitionerByName(name string) (Partitioner, bool) {
	switch name {
	case "", "rendezvous":
		return RendezvousPartitioner{}, true
	default:
		return nil, false
	}
}
