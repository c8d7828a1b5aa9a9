package netsim

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// TestFabricDeliveryAllocBudget is the regression wall for the pooled packet
// plane: once the datagram, event, and batch-item pools are warm, pushing a
// packet through send→schedule→coalesce→deliver→release must cost at most
// one allocation per delivered datagram (the budget absorbs amortized map
// and pool-slice growth; the steady state is zero). It holds for 16 single
// sends and for one 16-fragment train.
func TestFabricDeliveryAllocBudget(t *testing.T) {
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	payload := []byte("0123456789abcdef0123456789abcdef")
	const batch = 16
	frags := make([][]byte, batch)
	for i := range frags {
		frags[i] = payload
	}
	hdr := packet.NewDatagram(src, 5000, dst, 123, nil)

	for _, tc := range []struct {
		name string
		send func(nw *Network)
	}{
		{"sends", func(nw *Network) {
			for i := 0; i < batch; i++ {
				nw.SendUDP(src, 5000, dst, 123, TTLLinux, payload)
			}
		}},
		{"train", func(nw *Network) { nw.SendTrain(src, hdr, frags) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock vtime.Clock
			sched := vtime.NewScheduler(&clock)
			nw := New(sched, nil)
			delivered := 0
			nw.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) {
				delivered++
			}))
			run := func() {
				tc.send(nw)
				sched.Drain()
			}
			run() // warm every pool
			warm := delivered

			avg := testing.AllocsPerRun(50, run)
			if perDG := avg / batch; perDG > 1 {
				t.Errorf("fabric delivery costs %.2f allocs per datagram, budget is 1 (%.1f per %d-packet drain)",
					perDG, avg, batch)
			}
			if warm != batch || delivered <= warm {
				t.Fatalf("warm-up delivered %d of %d, measurement loop %d more", warm, batch, delivered-warm)
			}
		})
	}
}

// TestSendFromDoesNotRetainHeader pins the escape behaviour senders rely
// on: the fabric copies a datagram and keeps no pointer to it, so a
// datagram built fresh for each send (as the attack engine builds its
// triggers) can live on the sender's stack. A header that escaped through
// the send path would cost one allocation per send here.
func TestSendFromDoesNotRetainHeader(t *testing.T) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := New(sched, nil)
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	payload := []byte("0123456789abcdef")
	const batch = 16
	run := func() {
		for i := 0; i < batch; i++ {
			nw.SendFrom(src, packet.NewDatagram(src, 5000, dst, 123, payload))
			nw.SendTrain(src, packet.NewDatagram(src, 5000, dst, 123, nil), [][]byte{payload})
		}
		sched.Drain()
	}
	run() // warm every pool
	if avg := testing.AllocsPerRun(50, run); avg >= batch {
		t.Fatalf("%.1f allocs per %d sends: the send path retains the caller's datagram", avg, 2*batch)
	}
}

// TestFabricSendScratchDoesNotPinPayload guards the convenience-send scratch:
// the fabric copies the payload and must drop the caller's reference.
func TestFabricSendScratchDoesNotPinPayload(t *testing.T) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := New(sched, nil)
	nw.SendUDP(1, 1, 2, 2, TTLLinux, []byte("x"))
	if nw.sendScratch.Payload != nil {
		t.Fatal("sendScratch retains the caller's payload buffer")
	}
	sched.Drain()
}
