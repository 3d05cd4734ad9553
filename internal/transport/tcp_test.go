package transport

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/protocol"
	"repro/internal/value"
)

// TestTCPConcurrentSendersShareLink: goroutines sending to one destination
// share its link and its reused frame buffers on both ends. Frames of mixed
// sizes (some beyond the kept-buffer cap) must arrive intact and, per
// sender goroutine, in order.
func TestTCPConcurrentSendersShareLink(t *testing.T) {
	ctx := context.Background()
	b, err := ListenTCP(ctx, "b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(ctx, "a", "127.0.0.1:0", map[string]string{"b": b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const senders, perSender = 4, 40
	blob := func(g, i int) []byte {
		n := 16
		if i%5 == 0 {
			n = maxKeptBuf + 1000
		}
		return bytes.Repeat([]byte{byte(g*perSender + i)}, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				msg := protocol.FactsMsg{Ops: []protocol.FactDelta{{Fact: ast.NewFact("m", "b",
					value.Int(int64(g)), value.Int(int64(i)), value.Blob(blob(g, i)))}}}
				if err := a.Send(ctx, "b", msg); err != nil {
					t.Errorf("sender %d message %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	next := make([]int, senders)
	for got := 0; got < senders*perSender; {
		select {
		case <-b.Notify():
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d of %d messages", got, senders*perSender)
		}
		for _, env := range b.Drain() {
			args := env.Msg.(protocol.FactsMsg).Ops[0].Fact.Args
			g, i := int(args[0].IntVal()), int(args[1].IntVal())
			if i != next[g] {
				t.Fatalf("sender %d: message %d arrived, want %d", g, i, next[g])
			}
			if !bytes.Equal(args[2].BlobVal(), blob(g, i)) {
				t.Fatalf("sender %d message %d: payload corrupted", g, i)
			}
			next[g]++
			got++
		}
	}
}
