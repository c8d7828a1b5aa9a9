package netsim

import (
	"fmt"
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// fabricLog records everything a fabric does that a sender can observe:
// tap observations and host deliveries, each with its header, payload
// bytes, Rep and virtual time.
type fabricLog struct {
	taps       []string
	deliveries []string
}

func logLine(dg *packet.Datagram, now time.Time) string {
	return fmt.Sprintf("%+v %+v %x rep=%d @%d", dg.IP, dg.UDP, dg.Payload, dg.Rep, now.Sub(vtime.Epoch))
}

func (l *fabricLog) Observe(dg *packet.Datagram, now time.Time) {
	l.taps = append(l.taps, logLine(dg, now))
}

// trainFabric builds one side of the train-vs-sends comparison: a fabric
// with every impairment armed from one seed, a spoof policy that blocks
// origin 10.9.0.1, a logging tap and a registered host that answers each
// delivery with a 3-fragment train back to the sender (so trains are also
// sent from inside a firing batch). send is the way the fabric is fed.
func trainFabric(send func(nw *Network, origin netaddr.Addr, hdr *packet.Datagram, frags [][]byte) bool) (*Network, *vtime.Scheduler, *fabricLog) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	blocked := netaddr.MustParseAddr("10.9.0.1")
	nw := New(sched, func(origin, _ netaddr.Addr) bool { return origin != blocked })
	nw.SetMetrics(NewMetrics(metrics.NewRegistry()))
	nw.SetImpairment(Impairment{
		Loss: 0.2, Dup: 0.3, Reorder: 0.25, ReorderDelay: 80 * time.Millisecond,
		FlapRate: 0.3, FlapPeriod: time.Minute,
	}, rng.New(42).Fork("faults"))
	log := &fabricLog{}
	nw.AddTap(log)
	server := netaddr.MustParseAddr("10.0.0.2")
	reply := [][]byte{[]byte("r0"), []byte("r1-longer"), []byte("r2")}
	nw.Register(server, HostFunc(func(nw *Network, dg *packet.Datagram, now time.Time) {
		log.deliveries = append(log.deliveries, logLine(dg, now))
		if dg.UDP.DstPort != 123 {
			return
		}
		hdr := &packet.Datagram{
			IP:  packet.IPv4{TTL: TTLLinux, Protocol: packet.ProtocolUDP, Src: server, Dst: dg.IP.Src},
			UDP: packet.UDP{SrcPort: 123, DstPort: dg.UDP.SrcPort},
			Rep: dg.Rep,
		}
		send(nw, server, hdr, reply)
	}))
	return nw, sched, log
}

// TestSendTrainMatchesSendFrom holds SendTrain to its contract: a train is
// observably identical to sending its fragments one by one with SendFrom —
// same tap log, same deliveries in the same order at the same times, same
// Stats and drop-cause metrics, same return value — under loss,
// duplication, reordering and flaps, for spoof-dropped, TTL-expired and
// normal trains.
func TestSendTrainMatchesSendFrom(t *testing.T) {
	asTrain := func(nw *Network, origin netaddr.Addr, hdr *packet.Datagram, frags [][]byte) bool {
		return nw.SendTrain(origin, hdr, frags)
	}
	asSends := func(nw *Network, origin netaddr.Addr, hdr *packet.Datagram, frags [][]byte) bool {
		ok := true
		for _, f := range frags {
			dg := *hdr
			dg.Payload = f
			ok = nw.SendFrom(origin, &dg)
		}
		return ok
	}
	type side struct {
		send  func(*Network, netaddr.Addr, *packet.Datagram, [][]byte) bool
		nw    *Network
		sched *vtime.Scheduler
		log   *fabricLog
		ret   []bool
	}
	sides := [2]side{{send: asTrain}, {send: asSends}}
	for i := range sides {
		sides[i].nw, sides[i].sched, sides[i].log = trainFabric(sides[i].send)
	}

	client := netaddr.MustParseAddr("10.0.0.1")
	server := netaddr.MustParseAddr("10.0.0.2")
	dark := netaddr.MustParseAddr("10.7.7.7")
	blocked := netaddr.MustParseAddr("10.9.0.1")
	frags := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("fragment %d of %d", i, n))
		}
		return out
	}
	hdr := func(src, dst netaddr.Addr, dport uint16, ttl uint8, rep int64) *packet.Datagram {
		return &packet.Datagram{
			IP:  packet.IPv4{TTL: ttl, Protocol: packet.ProtocolUDP, Src: src, Dst: dst},
			UDP: packet.UDP{SrcPort: 40000, DstPort: dport},
			Rep: rep,
		}
	}
	type trainCase struct {
		origin netaddr.Addr
		hdr    *packet.Datagram
		frags  [][]byte
	}
	cases := []trainCase{
		{blocked, hdr(client, server, 123, TTLLinux, 5), frags(4)},   // spoofed, dropped by policy
		{client, hdr(client, server, 123, 5, 3), frags(6)},           // expires on TTL
		{client, hdr(client, server, 123, TTLLinux, 1), frags(1)},    // one fragment
		{client, hdr(client, server, 123, TTLLinux, 200), frags(16)}, // answered train
		{client, hdr(client, dark, 123, TTLWindows, 1000), frags(100)},
		{blocked, hdr(blocked, dark, 80, TTLLinux, 7), frags(3)}, // own address: never spoofed
		{client, hdr(client, server, 9, TTLLinux, 0), frags(5)},  // Rep 0 counts as 1
		{client, hdr(client, server, 123, TTLLinux, 2), nil},     // empty train
	}
	for round := 0; round < 40; round++ {
		for _, c := range cases {
			for i := range sides {
				s := &sides[i]
				s.ret = append(s.ret, s.send(s.nw, c.origin, c.hdr, c.frags))
			}
		}
		// Advance across flap windows, sometimes landing mid-flight.
		for i := range sides {
			s := &sides[i]
			s.sched.RunUntil(s.nw.Now().Add(time.Duration(round%7)*17*time.Second + 90*time.Millisecond))
		}
	}
	for i := range sides {
		sides[i].sched.Drain()
	}

	a, b := sides[0], sides[1]
	if fmt.Sprint(a.ret) != fmt.Sprint(b.ret) {
		t.Fatalf("return values differ:\ntrain: %v\nsends: %v", a.ret, b.ret)
	}
	if i := firstDiff(a.log.taps, b.log.taps); i >= 0 {
		t.Fatalf("tap logs differ at %d of %d/%d:\ntrain: %s\nsends: %s", i, len(a.log.taps), len(b.log.taps),
			at(a.log.taps, i), at(b.log.taps, i))
	}
	if i := firstDiff(a.log.deliveries, b.log.deliveries); i >= 0 {
		t.Fatalf("deliveries differ at %d of %d/%d:\ntrain: %s\nsends: %s", i,
			len(a.log.deliveries), len(b.log.deliveries), at(a.log.deliveries, i), at(b.log.deliveries, i))
	}
	if a.nw.Stats() != b.nw.Stats() {
		t.Fatalf("stats differ:\ntrain: %+v\nsends: %+v", a.nw.Stats(), b.nw.Stats())
	}
	for _, c := range []struct {
		name string
		get  func(m *Metrics) int64
	}{
		{"spoof", func(m *Metrics) int64 { return m.dropSpoof.Value() }},
		{"ttl", func(m *Metrics) int64 { return m.dropTTL.Value() }},
		{"loss", func(m *Metrics) int64 { return m.dropLoss.Value() }},
		{"flap", func(m *Metrics) int64 { return m.dropFlap.Value() }},
		{"taps", func(m *Metrics) int64 { return m.TapFanout.Value() }},
		{"bytes", func(m *Metrics) int64 { return m.Bytes.Value() }},
	} {
		if x, y := c.get(a.nw.m), c.get(b.nw.m); x != y {
			t.Errorf("metric %s: train %d, sends %d", c.name, x, y)
		}
	}

	// The comparison only means something if every path was exercised.
	s := a.nw.Stats()
	if s.DroppedSpoof == 0 || s.DroppedLoss == 0 || s.DroppedFlap == 0 ||
		s.Duplicated == 0 || s.Reordered == 0 || s.Delivered == 0 || s.Dark == 0 ||
		a.nw.m.dropTTL.Value() == 0 {
		t.Fatalf("some send path never ran: %+v ttl=%d", s, a.nw.m.dropTTL.Value())
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
