package runtime

import (
	"testing"
	"testing/quick"
)

// Property tests for the configuration generator: for every plausible
// topology and option set, the generated configurations are valid,
// placement-correct and bounded.

func arbTopo(s, c, nic uint8) TopologyInfo {
	sockets := int(s)%4 + 1
	return TopologyInfo{
		Sockets:        sockets,
		CoresPerSocket: int(c)%64 + 1,
		NICSocket:      int(nic) % sockets,
	}
}

func TestPropertyReceiverConfigsAlwaysValid(t *testing.T) {
	f := func(s, c, nic, streams uint8, compression bool) bool {
		topo := arbTopo(s, c, nic)
		cfg, err := GenerateReceiverConfig("gw", topo, GenerateOptions{
			Streams:     int(streams) % 100,
			Compression: compression,
		})
		if err != nil {
			return false
		}
		if cfg.Validate(topo.Sockets) != nil {
			return false
		}
		// Receive threads always pin to the NIC domain, one per core
		// at most.
		recv, ok := cfg.Group(Receive)
		if !ok || recv.Count < 1 || recv.Count > topo.CoresPerSocket {
			return false
		}
		if recv.Placement.Mode != Pinned || recv.Placement.Sockets[0] != topo.NICSocket {
			return false
		}
		// Decompression, when present, avoids the NIC domain on
		// multi-socket machines.
		if dec, ok := cfg.Group(Decompress); ok {
			if !compression {
				return false
			}
			if topo.Sockets > 1 {
				for _, s := range dec.Placement.Sockets {
					if s == topo.NICSocket {
						return false
					}
				}
			}
			if dec.Count < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySenderConfigsAlwaysValid(t *testing.T) {
	f := func(s, c, nic, sendThreads uint8, compression bool, target uint16) bool {
		topo := arbTopo(s, c, nic)
		cfg, err := GenerateSenderConfig("src", topo, GenerateOptions{
			Compression: compression,
			SendThreads: int(sendThreads) % 20,
			TargetGbps:  float64(target) / 10,
		})
		if err != nil {
			return false
		}
		if cfg.Validate(topo.Sockets) != nil {
			return false
		}
		if cfg.Count(Send) < 1 {
			return false
		}
		comp := cfg.Count(Compress)
		if compression {
			// Bounded by the machine and at least one thread.
			if comp < 1 || comp > topo.Sockets*topo.CoresPerSocket {
				return false
			}
		} else if comp != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOSBaselinePreservesCounts(t *testing.T) {
	f := func(s, c, nic, streams uint8) bool {
		topo := arbTopo(s, c, nic)
		cfg, err := GenerateReceiverConfig("gw", topo, GenerateOptions{
			Streams: int(streams) % 20, Compression: true,
		})
		if err != nil {
			return false
		}
		baseline := GenerateOSBaseline(cfg)
		if len(baseline.Groups) != len(cfg.Groups) {
			return false
		}
		for i, g := range baseline.Groups {
			if g.Placement.Mode != OSDefault {
				return false
			}
			if g.Count != cfg.Groups[i].Count || g.Type != cfg.Groups[i].Type {
				return false
			}
		}
		return baseline.Validate(topo.Sockets) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
