package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/numa"
	"numastream/internal/runtime"
)

// TestSenderTeardownInvariant: whatever ends the run, RunSender returns
// promptly with every buffer lease back in the pool, every goroutine it
// started gone and the Source never called again — the sender's half of
// the receiver's and forwarder's teardown tables.
func TestSenderTeardownInvariant(t *testing.T) {
	const horizon = 200 * time.Millisecond
	// sparse is a host whose NUMA node ids are 0 and 2: socket 1 passes
	// Validate (two nodes) and then names no node when the send stage is
	// placed, after the compress stage's placement has succeeded.
	sparse := numa.HostTopology{Nodes: []numa.Node{{ID: 0, CPUs: []int{0}}, {ID: 2, CPUs: []int{1}}}}
	unplaceable := runtime.NodeConfig{Node: "snd", Role: runtime.Sender, Groups: []runtime.TaskGroup{
		{Type: runtime.Compress, Count: 1, Placement: runtime.OS()},
		{Type: runtime.Send, Count: 1, Placement: runtime.PinTo(1)},
	}}
	cases := []struct {
		name    string
		chunks  int64 // the Source yields this many chunks, then nil; 0: it never ends
		dead    bool  // the only peer is an address nothing listens on
		killAt  int   // stop the receiver once it has delivered this many chunks
		storm   bool  // Grow and Shrink both stages while the stream runs
		opts    func(o *SenderOptions)
		wantErr bool
	}{
		{name: "Source exhausted", chunks: 64},
		{name: "peers never appear", dead: true, wantErr: true},
		{name: "receiver dies mid-stream", killAt: 16, wantErr: true},
		{name: "placement failure", wantErr: true,
			opts: func(o *SenderOptions) { o.Topo, o.Cfg = sparse, unplaceable }},
		{name: "Grow and Shrink mid-run", chunks: 256, storm: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := goruntime.NumGoroutine()
			rx := startCountingReceiver(t)
			peer := rx.addr
			if tc.dead {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				peer = ln.Addr().String()
				ln.Close()
			}
			pool := bufpool.New(2)
			ctl := NewControls()
			var calls atomic.Int64
			opts := SenderOptions{
				Cfg: senderCfg(2, 2), Topo: testTopo(), Peers: []string{peer},
				SendHorizon: horizon, QueueCap: 4, BufPool: pool, Controls: ctl,
				Source: func() []byte {
					i := calls.Add(1)
					if tc.chunks > 0 && i > tc.chunks {
						return nil
					}
					time.Sleep(100 * time.Microsecond)
					return bytes.Repeat([]byte(fmt.Sprintf("chunk-%06d|", i)), 1<<10)
				},
			}
			if tc.opts != nil {
				tc.opts(&opts)
			}
			done := make(chan error, 1)
			go func() { done <- RunSender(opts) }()

			stormStop, stormDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stormDone)
				if !tc.storm {
					return
				}
				rng := rand.New(rand.NewSource(5))
				for {
					select {
					case <-stormStop:
						return
					case <-time.After(time.Millisecond):
					}
					stage := []string{"compress", "send"}[rng.Intn(2)]
					if rng.Intn(2) == 0 {
						ctl.Grow(stage, 1+rng.Intn(2), rng.Intn(2))
					} else {
						ctl.Shrink(stage, 1+rng.Intn(2), -1)
					}
				}
			}()
			killed := tc.killAt > 0
			if killed {
				waitCond(t, "chunks delivered", func() bool { return rx.n() >= tc.killAt })
				close(rx.stop)
			}
			select {
			case err := <-done:
				if (err != nil) != tc.wantErr {
					t.Errorf("RunSender = %v, want error: %v", err, tc.wantErr)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("RunSender did not return within 2s of its exit cause")
			}
			close(stormStop)
			<-stormDone

			n := calls.Load()
			time.Sleep(50 * time.Millisecond)
			if m := calls.Load(); m != n {
				t.Errorf("Source called %d more times after RunSender returned", m-n)
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("bufpool has %d leases outstanding after RunSender returned", n)
			}
			for _, stage := range ctl.Stages() {
				if p := ctl.Pool(stage); p.Live() != 0 {
					t.Errorf("pool %s has %d live workers after RunSender returned", stage, p.Live())
				}
			}
			if !killed {
				close(rx.stop)
			}
			if err := <-rx.done; err != nil {
				t.Errorf("receiver: %v", err)
			}
			// Goroutines unwind asynchronously after the calls that stop
			// them return; give them a moment.
			deadline := time.Now().Add(2 * time.Second)
			for goruntime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, %d before the run:\n%s", goruntime.NumGoroutine(), baseline,
						buf[:goruntime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
