// Package numastream is a NUMA-aware runtime system for efficient
// scientific data streaming — a Go reproduction of Jamil et al.,
// "Throughput Optimization with a NUMA-Aware Runtime System for
// Efficient Scientific Data Streaming" (SC 2023, INDIS workshop).
//
// The runtime organizes a streaming application as a heterogeneous
// software pipeline — compression threads {C}, sending threads {S},
// receiving threads {R} and decompression threads {D} connected by
// bounded thread-safe queues — and places each task group on the NUMA
// domain where it runs best: receive threads on the domain the data NIC
// is attached to, decompression on the opposite domain, compression
// wherever cores are free. A configuration generator derives these
// placements from topology knowledge.
//
// Two execution substrates share the same NodeConfig:
//
//   - Real execution (StartSender/StartReceiver): goroutine worker pools
//     with OS-thread pinning via sched_setaffinity, LZ4 block compression
//     and PUSH/PULL messaging over TCP.
//   - Simulated execution (Stream/Runner on machine models): a
//     discrete-event model of the paper's two-socket Xeon testbed used
//     by the experiment harnesses that regenerate every figure of the
//     paper's evaluation (see EXPERIMENTS.md).
//
// # Quickstart
//
//	topo, _ := numastream.DiscoverTopology()
//	rcv, _ := numastream.GenerateReceiverConfig("gw", numastream.TopologyInfo{
//	    Sockets: 2, CoresPerSocket: 16, NICSocket: 1,
//	}, numastream.GenerateOptions{Streams: 1, Compression: true})
//
// then pass the configs to StartReceiver and StartSender (see
// examples/quickstart).
package numastream

import (
	"numastream/internal/metrics"
	"numastream/internal/numa"
	"numastream/internal/pipeline"
	"numastream/internal/runtime"
	"numastream/internal/telemetry"
)

// Configuration types (see internal/runtime for full documentation).
type (
	// NodeConfig is one node's task configuration (Figure 4 of the
	// paper): task types, counts and execution locations.
	NodeConfig = runtime.NodeConfig
	// TaskGroup is one task type's thread count and placement.
	TaskGroup = runtime.TaskGroup
	// TaskType identifies compress, send, receive or decompress.
	TaskType = runtime.TaskType
	// Placement is an execution-location policy.
	Placement = runtime.Placement
	// PlacementMode selects pinned, core-pinned, split or OS placement.
	PlacementMode = runtime.PlacementMode
	// TopologyInfo is the generator's hardware knowledge base.
	TopologyInfo = runtime.TopologyInfo
	// GenerateOptions tunes the configuration generator.
	GenerateOptions = runtime.GenerateOptions
	// Role is sender or receiver.
	Role = runtime.Role
)

// Task types and roles.
const (
	Compress   = runtime.Compress
	Send       = runtime.Send
	Receive    = runtime.Receive
	Decompress = runtime.Decompress
	Sender     = runtime.Sender
	Receiver   = runtime.Receiver
)

// Placement constructors.
var (
	// PinTo pins a task group to the given NUMA sockets.
	PinTo = runtime.PinTo
	// PinToCores pins a task group to explicit core ids.
	PinToCores = runtime.PinToCores
	// SplitAll balances a task group across all sockets.
	SplitAll = runtime.SplitAll
	// OS leaves placement to the operating system (the baseline).
	OS = runtime.OS
)

// Configuration generation (the paper's "runtime configuration
// generator").
var (
	// GenerateSenderConfig derives a sender node's configuration.
	GenerateSenderConfig = runtime.GenerateSenderConfig
	// GenerateReceiverConfig derives a gateway node's configuration.
	GenerateReceiverConfig = runtime.GenerateReceiverConfig
	// GenerateOSBaseline rewrites a config to OS placement.
	GenerateOSBaseline = runtime.GenerateOSBaseline
	// EncodeConfig/DecodeConfig round-trip the JSON config files.
	EncodeConfig = runtime.EncodeConfig
	DecodeConfig = runtime.DecodeConfig
)

// Real execution.
type (
	// SenderOptions configures StartSender.
	SenderOptions = pipeline.SenderOptions
	// ReceiverOptions configures StartReceiver.
	ReceiverOptions = pipeline.ReceiverOptions
	// ForwarderOptions configures StartForwarder.
	ForwarderOptions = pipeline.ForwarderOptions
	// Chunk is one streamed data unit.
	Chunk = pipeline.Chunk
	// Registry aggregates named throughput meters, event counters,
	// gauges and latency histograms.
	Registry = metrics.Registry
	// Histogram is a log-scale latency/size histogram.
	Histogram = metrics.Histogram
	// Gauge is an instantaneous value (queue depth, live peers).
	Gauge = metrics.Gauge
	// HostTopology is the discovered NUMA layout of this host.
	HostTopology = numa.HostTopology
)

// StartSender runs a sender node until its source is exhausted.
func StartSender(opts SenderOptions) error { return pipeline.RunSender(opts) }

// StartReceiver runs a receiver node until Expect chunks are accounted
// for (delivered or quarantined), or Stop closes.
func StartReceiver(opts ReceiverOptions) error { return pipeline.RunReceiver(opts) }

// StartForwarder runs a gateway node that relays compressed chunks from
// upstream senders to downstream receivers, load-balancing across them
// (Figure 1's accumulate/load-balance/forward role).
func StartForwarder(opts ForwarderOptions) error { return pipeline.RunForwarder(opts) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// TelemetryServer serves a registry live over HTTP: /metrics in
// Prometheus text exposition format, /debug/vars (expvar) and
// /debug/pprof. See internal/telemetry.
type TelemetryServer struct {
	s *telemetry.Server
}

// ServeTelemetry starts a telemetry server for reg on addr (":0" picks
// a free port).
func ServeTelemetry(addr string, reg *Registry) (*TelemetryServer, error) {
	s, err := telemetry.ServeWith(addr, reg, telemetry.Options{})
	if err != nil {
		return nil, err
	}
	return &TelemetryServer{s: s}, nil
}

// Addr returns the server's bound address.
func (t *TelemetryServer) Addr() string { return t.s.Addr() }

// Close stops the server.
func (t *TelemetryServer) Close() error { return t.s.Close() }

// DiscoverTopology returns this host's NUMA topology; ok is false when
// sysfs discovery was unavailable and a synthetic single-node topology
// was substituted.
func DiscoverTopology() (HostTopology, bool) { return numa.Discover() }

// SyntheticTopology builds an explicit topology (useful for tests and
// for driving the generator for a remote machine).
func SyntheticTopology(nodes, cpusPerNode int) HostTopology {
	return numa.Synthetic(nodes, cpusPerNode)
}
