package msgq

import (
	"bytes"
	"testing"
)

func BenchmarkLoopbackSendRecv(b *testing.B) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer pull.Close()
	push := NewPush()
	defer push.Close()
	push.Connect(pull.Addr().String())

	payload := bytes.Repeat([]byte{0xcd}, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := pull.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := push.Send(Message{payload}); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWireEncode(b *testing.B) {
	msg := Message{make([]byte, 16), bytes.Repeat([]byte{1}, 256<<10)}
	b.SetBytes(int64(256 << 10))
	var sink countWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessage(&sink, msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
