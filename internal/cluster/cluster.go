// Package cluster assembles the relayed multi-node simulated deployment
// (MultiHop): machine models wired together with named network links.
// The experiment harnesses build their multi-hop scenarios from it
// instead of repeating topology plumbing.
package cluster

import (
	"numastream/internal/netsim"
	"numastream/internal/runtime"
)

// Node is one sender of a deployment with its path to the gateway.
type Node struct {
	Sim  *runtime.SimNode
	Path *netsim.Path
}

// SenderKind selects a sender machine model.
type SenderKind int

// The paper's sender machines.
const (
	Updraft SenderKind = iota // 2×16-core Xeon, 100 Gbps NIC
	Polaris                   // 1×32-core EPYC, 100 Gbps NIC
)
