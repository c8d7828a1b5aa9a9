// Package netsim is the simulated Internet fabric: it delivers UDP/IPv4
// datagrams between registered hosts under virtual time, enforcing (or, for
// the ~quarter of networks without BCP 38/84, failing to enforce) source
// address validation — the misconfiguration that makes reflection attacks
// possible (§1).
//
// The fabric also hosts the measurement infrastructure: taps observe every
// packet (the darknet telescope, the ISP flow collectors, the global
// telemetry aggregator are all taps), and packets destined to unregistered
// addresses simply vanish after the taps have seen them — which is exactly
// what a darknet is.
package netsim

import (
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// Host receives datagrams addressed to a registered address.
type Host interface {
	// HandlePacket is invoked at the packet's (virtual) arrival time. The
	// datagram's TTL has already been decremented by the path length.
	HandlePacket(net *Network, dg *packet.Datagram, now time.Time)
}

// HostFunc adapts a function to the Host interface.
type HostFunc func(net *Network, dg *packet.Datagram, now time.Time)

// HandlePacket implements Host.
func (f HostFunc) HandlePacket(net *Network, dg *packet.Datagram, now time.Time) {
	f(net, dg, now)
}

// Tap observes every packet traversing the fabric (after TTL decrement,
// before delivery). Taps must not mutate the datagram.
type Tap interface {
	Observe(dg *packet.Datagram, now time.Time)
}

// SpoofPolicy reports whether a host at origin may emit a packet claiming
// the given source address. Networks deploying BCP 38/84 return false for
// any src outside their own space.
type SpoofPolicy func(origin, claimed netaddr.Addr) bool

// Stats counts fabric activity. All counters honour the Rep batching
// multiplier: one datagram with Rep = n counts as n packets.
type Stats struct {
	Sent         int64 // packets accepted from senders
	Delivered    int64 // packets handed to a registered host
	Dark         int64 // packets to unregistered addresses (incl. darknet)
	DroppedSpoof int64 // spoofed packets blocked by BCP38 at the source
	DroppedLoss  int64 // packets lost in transit by the impairment stage
	DroppedFlap  int64 // packets swallowed whole by a downed-link flap window
	Duplicated   int64 // extra in-transit copies materialized by the impairment stage
	Reordered    int64 // packets detoured onto a slower path (bounded reordering)
	BytesOnWire  int64 // total on-wire bytes of accepted packets
}

// Network is the fabric. It is single-threaded and driven entirely by the
// scheduler, keeping the simulation deterministic.
//
// Datagram ownership: SendFrom copies the caller's datagram (header fields
// and payload bytes) into a pooled in-flight copy, and SendTrain does the
// same for each fragment, so senders may reuse their datagram and payload
// buffers the moment the call returns. The in-flight copy is released back
// to the pool right after delivery: hosts and taps must not retain the
// *Datagram or its payload past HandlePacket/Observe — copy what must
// outlive the call.
type Network struct {
	sched  *vtime.Scheduler
	policy SpoofPolicy
	hosts  map[netaddr.Addr]Host
	// hostsGen counts Register/Unregister calls so delivery loops can
	// memoize host lookups and still notice mid-batch re-binds.
	hostsGen uint64
	taps     []Tap
	stats    Stats
	m        *Metrics
	impair   *impairState // nil unless SetImpairment armed a nonzero config

	// dgPool is the free list of in-flight datagram copies. Single-threaded
	// like everything else on the fabric, so a plain slice beats sync.Pool.
	dgPool []*packet.Datagram

	// sendScratch backs the SendUDP/SendSpoofed convenience wrappers: since
	// SendFrom copies the datagram before returning, one reusable struct
	// serves every convenience send without allocating.
	sendScratch packet.Datagram
}

// Metrics is the fabric's optional live instrumentation. All counters are
// Rep-weighted, mirroring Stats; writes are atomic and never touch RNG or
// scheduler state, so an instrumented run is behaviourally identical to an
// uninstrumented one.
type Metrics struct {
	Sent         *metrics.Counter
	Delivered    *metrics.Counter
	Dark         *metrics.Counter
	DroppedSpoof *metrics.Counter
	Expired      *metrics.Counter
	Bytes        *metrics.Counter
	TapFanout    *metrics.Counter
	Duplicated   *metrics.Counter
	Reordered    *metrics.Counter
	Hosts        *metrics.Gauge
	// Dropped partitions every in-or-before-transit drop by cause
	// (spoof | ttl | loss | flap); the legacy unlabeled counters above keep
	// counting in parallel. Children are pre-resolved for the hot path.
	Dropped   *metrics.CounterVec
	dropSpoof *metrics.Counter
	dropTTL   *metrics.Counter
	dropLoss  *metrics.Counter
	dropFlap  *metrics.Counter
}

// NewMetrics registers the fabric family on r (nil r yields no-op metrics).
func NewMetrics(r *metrics.Registry) *Metrics {
	m := &Metrics{
		Sent: r.NewCounter("ntpsim_fabric_packets_sent_total",
			"Rep-weighted packets accepted from senders."),
		Delivered: r.NewCounter("ntpsim_fabric_packets_delivered_total",
			"Rep-weighted packets handed to a registered host."),
		Dark: r.NewCounter("ntpsim_fabric_packets_dark_total",
			"Rep-weighted packets to unregistered addresses (darknet)."),
		DroppedSpoof: r.NewCounter("ntpsim_fabric_packets_spoof_dropped_total",
			"Rep-weighted spoofed packets blocked by BCP38 at the source."),
		Expired: r.NewCounter("ntpsim_fabric_packets_ttl_expired_total",
			"Rep-weighted packets whose TTL expired in transit."),
		Bytes: r.NewCounter("ntpsim_fabric_bytes_sent_total",
			"Rep-weighted on-wire bytes of accepted packets."),
		TapFanout: r.NewCounter("ntpsim_fabric_tap_observations_total",
			"Tap Observe calls (one per attached tap per real datagram)."),
		Duplicated: r.NewCounter("ntpsim_fabric_packets_duplicated_total",
			"Rep-weighted extra in-transit copies from the impairment stage."),
		Reordered: r.NewCounter("ntpsim_fabric_packets_reordered_total",
			"Rep-weighted packets detoured onto a slower path (bounded reordering)."),
		Hosts: r.NewGauge("ntpsim_fabric_hosts",
			"Currently registered fabric hosts."),
		Dropped: r.NewCounterVec("ntpsim_fabric_packets_dropped_total",
			"Rep-weighted packets dropped in or before transit, by cause.", "cause"),
	}
	m.dropSpoof = m.Dropped.With("spoof")
	m.dropTTL = m.Dropped.With("ttl")
	m.dropLoss = m.Dropped.With("loss")
	m.dropFlap = m.Dropped.With("flap")
	return m
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (n *Network) SetMetrics(m *Metrics) {
	n.m = m
	if m != nil {
		m.Hosts.SetInt(int64(len(n.hosts)))
	}
}

// New builds a fabric on the given scheduler. A nil policy permits all
// spoofing (a fully BCP38-free Internet).
func New(sched *vtime.Scheduler, policy SpoofPolicy) *Network {
	if policy == nil {
		policy = func(_, _ netaddr.Addr) bool { return true }
	}
	return &Network{sched: sched, policy: policy, hosts: make(map[netaddr.Addr]Host)}
}

// Scheduler returns the underlying scheduler, letting hosts schedule their
// own timed behaviour (retransmissions, the mega-amplifier replay loop).
func (n *Network) Scheduler() *vtime.Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.sched.Clock().Now() }

// Register binds a host to an address. Registering over an existing binding
// replaces it (DHCP churn re-binds residential amplifiers this way).
func (n *Network) Register(a netaddr.Addr, h Host) {
	n.hosts[a] = h
	n.hostsGen++
	if n.m != nil {
		n.m.Hosts.SetInt(int64(len(n.hosts)))
	}
}

// Unregister removes a binding.
func (n *Network) Unregister(a netaddr.Addr) {
	delete(n.hosts, a)
	n.hostsGen++
	if n.m != nil {
		n.m.Hosts.SetInt(int64(len(n.hosts)))
	}
}

// IsRegistered reports whether an address has a live host.
func (n *Network) IsRegistered(a netaddr.Addr) bool {
	_, ok := n.hosts[a]
	return ok
}

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// AddTap attaches an observer to the fabric.
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// Stats returns a snapshot of the fabric counters.
func (n *Network) Stats() Stats { return n.stats }

// pairHash mixes a (src, dst) pair into a deterministic 64-bit value used to
// derive per-path properties without consuming randomness.
func pairHash(a, b netaddr.Addr) uint64 {
	x := uint64(a)<<32 | uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// PathHops returns the deterministic hop count between two addresses,
// between 8 and 23 — the range that turns a Linux TTL of 64 into the ~54
// and a Windows TTL of 128 into the ~109 observed at the CSU tap (§7.2).
func PathHops(src, dst netaddr.Addr) int {
	return 8 + int(pairHash(src, dst)%16)
}

// PathLatency returns the deterministic one-way latency between two
// addresses, between 10ms and 240ms.
func PathLatency(src, dst netaddr.Addr) time.Duration {
	return 10*time.Millisecond + time.Duration(pairHash(dst, src)%230)*time.Millisecond
}

// SendFrom injects a datagram into the fabric from a host whose true
// address is origin. If the datagram's IP source differs from origin, the
// spoof policy decides whether the packet leaves the source network at all.
// It returns false when the packet was dropped at the source or expired in
// transit. SendFrom is a one-fragment SendTrain.
func (n *Network) SendFrom(origin netaddr.Addr, dg *packet.Datagram) bool {
	var tr train
	ok := n.route(&tr, origin, dg)
	n.sendFragment(&tr, dg, dg.Payload)
	return ok
}

// SendTrain injects a train of fragments that share one header: each
// fragment is sent as hdr with that fragment as its payload (hdr.Payload is
// ignored), in order. The work that depends only on the (origin,
// destination) pair — spoof policy, path hops and TTL, latency, flap state,
// the taps' timestamp — runs once per train; every fragment still gets its
// own counters, impairment draws, pooled copy, tap observations and
// delivery, exactly as consecutive SendFrom calls would. The fabric copies
// each fragment, so the caller may reuse hdr and frags on return. It
// returns false when the train was dropped at the source or expired.
func (n *Network) SendTrain(origin netaddr.Addr, hdr *packet.Datagram, frags [][]byte) bool {
	var tr train
	ok := n.route(&tr, origin, hdr)
	for _, f := range frags {
		n.sendFragment(&tr, hdr, f)
	}
	return ok
}

// train is the per-train send state: the verdicts and path properties
// shared by every fragment from one origin under one header. It holds no
// pointers, so a sender's header never escapes through it.
type train struct {
	rep     int64
	spoofed bool // dropped by the source network's spoof policy
	expired bool // TTL runs out on the path
	hops    int
	latency time.Duration
	now     time.Time
	down    bool    // the link is inside a flap window
	loss    float64 // the link's loss probability
}

// route fills tr for a train from origin under hdr.
func (n *Network) route(tr *train, origin netaddr.Addr, hdr *packet.Datagram) bool {
	tr.rep = hdr.Rep
	if tr.rep <= 0 {
		tr.rep = 1
	}
	if hdr.IP.Src != origin && !n.policy(origin, hdr.IP.Src) {
		tr.spoofed = true
		return false
	}
	// The path is computed from the true origin: TTL decay reveals the
	// sender's distance regardless of the claimed source — the very signal
	// the §7.2 TTL analysis exploits.
	dst := hdr.IP.Dst
	tr.hops = PathHops(origin, dst)
	if int(hdr.IP.TTL) <= tr.hops {
		tr.expired = true
		return false
	}
	tr.latency = PathLatency(origin, dst)
	tr.now = n.Now()
	if st := n.impair; st != nil {
		tr.down = st.linkDown(origin, dst, tr.now)
		tr.loss = st.linkLoss(origin, dst)
	}
	return true
}

// sendFragment sends one fragment of a train routed under hdr.
func (n *Network) sendFragment(tr *train, hdr *packet.Datagram, payload []byte) {
	rep := tr.rep
	if tr.spoofed {
		n.stats.DroppedSpoof += rep
		if n.m != nil {
			n.m.DroppedSpoof.Add(rep)
			n.m.dropSpoof.Add(rep)
		}
		return
	}
	wire := int64(packet.OnWireBytesForUDPPayload(len(payload))) * rep
	n.stats.Sent += rep
	n.stats.BytesOnWire += wire
	if n.m != nil {
		n.m.Sent.Add(rep)
		n.m.Bytes.Add(wire)
	}
	if tr.expired {
		if n.m != nil {
			n.m.Expired.Add(rep)
			n.m.dropTTL.Add(rep)
		}
		return
	}

	latency := tr.latency
	var dups int64
	if st := n.impair; st != nil {
		// Flap windows swallow the batch whole: the sender saw it leave, so
		// this (and every in-transit fault below) still counts as sent.
		if tr.down {
			n.stats.DroppedFlap += rep
			if n.m != nil {
				n.m.dropFlap.Add(rep)
			}
			return
		}
		if lost := st.src.Binomial(rep, tr.loss); lost > 0 {
			n.stats.DroppedLoss += lost
			if n.m != nil {
				n.m.dropLoss.Add(lost)
			}
			rep -= lost
			if rep == 0 {
				return
			}
		}
		if dups = st.src.Binomial(rep, st.cfg.Dup); dups > 0 {
			n.stats.Duplicated += dups
			if n.m != nil {
				n.m.Duplicated.Add(dups)
			}
		}
		if st.cfg.Reorder > 0 && st.src.Bool(st.cfg.Reorder) {
			latency += time.Duration(st.src.Int64N(int64(st.cfg.ReorderDelay))) + time.Millisecond
			n.stats.Reordered += rep
			if n.m != nil {
				n.m.Reordered.Add(rep)
			}
		}
	}

	delivered := n.getDatagram(hdr, payload)
	delivered.IP.TTL -= uint8(tr.hops)
	delivered.Rep = rep
	n.observe(delivered, tr.now)
	n.sched.AfterBatch(latency, n, delivered)

	if dups > 0 {
		// Duplicates are real wire packets: taps see them, and they arrive
		// on their own (slower) schedule. The copy gets its own pooled
		// buffer — both copies are in flight (and released) independently.
		dup := n.getDatagram(delivered, delivered.Payload)
		dup.Rep = dups
		n.observe(dup, tr.now)
		extra := time.Duration(n.impair.src.Int64N(int64(100*time.Millisecond))) + time.Millisecond
		n.sched.AfterBatch(latency+extra, n, dup)
	}
}

// observe shows an in-flight copy to every tap.
func (n *Network) observe(cp *packet.Datagram, now time.Time) {
	for _, t := range n.taps {
		t.Observe(cp, now)
	}
	if n.m != nil {
		n.m.TapFanout.Add(int64(len(n.taps)))
	}
}

// getDatagram takes an in-flight copy off the free list (or allocates one)
// and fills it from hdr and payload: header fields by value, payload by byte
// copy into the pooled buffer.
func (n *Network) getDatagram(hdr *packet.Datagram, payload []byte) *packet.Datagram {
	var cp *packet.Datagram
	if k := len(n.dgPool); k > 0 {
		cp = n.dgPool[k-1]
		n.dgPool = n.dgPool[:k-1]
	} else {
		cp = &packet.Datagram{}
	}
	cp.IP = hdr.IP
	cp.UDP = hdr.UDP
	cp.Payload = append(cp.Payload[:0], payload...)
	cp.Rep = hdr.Rep
	return cp
}

// releaseDatagram returns an in-flight copy to the free list, keeping its
// payload buffer for reuse.
func (n *Network) releaseDatagram(cp *packet.Datagram) {
	cp.Payload = cp.Payload[:0]
	n.dgPool = append(n.dgPool, cp)
}

// RunBatch implements vtime.BatchSink: it delivers a batch of same-instant
// in-flight datagrams — handed to the registered host, or counted dark when
// nothing answers — releasing each copy back to the pool afterwards.
// Same-instant arrivals coalesce into one scheduler event (the network is
// the batch sink), which the scheduler guarantees is order-identical to one
// event per packet.
func (n *Network) RunBatch(now time.Time, items []any) {
	// Same-instant batches are dominated by runs to one destination (trigger
	// bursts, monlist fragments); memoize the last host lookup, invalidated
	// whenever a handler re-binds an address mid-batch.
	var (
		haveLast bool
		lastDst  netaddr.Addr
		lastHost Host
		lastOK   bool
	)
	gen := n.hostsGen
	for _, item := range items {
		cp := item.(*packet.Datagram)
		count := cp.Rep
		h, ok := lastHost, lastOK
		if !haveLast || cp.IP.Dst != lastDst {
			h, ok = n.hosts[cp.IP.Dst]
			haveLast, lastDst, lastHost, lastOK = true, cp.IP.Dst, h, ok
		}
		if ok {
			n.stats.Delivered += count
			if n.m != nil {
				n.m.Delivered.Add(count)
			}
			h.HandlePacket(n, cp, now)
			if n.hostsGen != gen {
				haveLast, gen = false, n.hostsGen
			}
		} else {
			n.stats.Dark += count
			if n.m != nil {
				n.m.Dark.Add(count)
			}
		}
		n.releaseDatagram(cp)
	}
}

// SendUDP is a convenience wrapper building and sending a datagram whose IP
// source is the true origin (no spoofing), with the sender's OS default TTL.
func (n *Network) SendUDP(origin netaddr.Addr, srcPort uint16, dst netaddr.Addr, dstPort uint16, ttl uint8, payload []byte) bool {
	return n.sendScratchFrom(origin, origin, srcPort, dst, dstPort, ttl, payload)
}

// SendSpoofed builds and sends a datagram whose IP source is forged to
// victim — the attacker→amplifier trigger packet of a reflection attack.
func (n *Network) SendSpoofed(origin netaddr.Addr, victim netaddr.Addr, victimPort uint16, dst netaddr.Addr, dstPort uint16, ttl uint8, payload []byte) bool {
	return n.sendScratchFrom(origin, victim, victimPort, dst, dstPort, ttl, payload)
}

// sendScratchFrom assembles the datagram in the network's scratch struct and
// injects it. The payload reference is dropped afterwards so the fabric never
// pins a sender's buffer.
func (n *Network) sendScratchFrom(origin, src netaddr.Addr, srcPort uint16, dst netaddr.Addr, dstPort uint16, ttl uint8, payload []byte) bool {
	dg := &n.sendScratch
	dg.IP = packet.IPv4{TTL: ttl, Protocol: packet.ProtocolUDP, Src: src, Dst: dst}
	dg.UDP = packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	dg.Payload = payload
	dg.Rep = 1
	ok := n.SendFrom(origin, dg)
	dg.Payload = nil
	return ok
}

// OS default initial TTLs — the fingerprints behind the paper's observation
// that scanners look like Linux (TTL mode 54) while attack spoofers look
// like Windows bots (TTL mode 109).
const (
	TTLLinux   = 64
	TTLWindows = 128
	TTLCisco   = 255
)
