package ispview

import (
	"testing"
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/attack"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// fixture builds a world where Merit hosts one vulnerable amplifier and an
// external booter attacks an external victim through it.
type fixture struct {
	nw     *netsim.Network
	sched  *vtime.Scheduler
	db     *asdb.DB
	view   *View
	amp    *ntpd.Server
	victim netaddr.Addr
	engine *attack.Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := netsim.New(sched, nil)
	db := asdb.Build(rng.New(11), asdb.Config{NumASes: 50, SpooferFraction: 1})
	merit := db.ByName(asdb.NameMerit)
	view := New("Merit", db, merit)
	nw.AddTap(view)

	ampAddr := merit.Prefixes[0].Nth(100)
	amp := ntpd.New(ntpd.Config{Addr: ampAddr, MonlistEnabled: true,
		Profile: ntpd.Profile{TTL: 64, SystemString: "linux"}})
	nw.Register(ampAddr, amp)

	victim := db.ByName("OCN-JP").Prefixes[0].Nth(500)
	engine := attack.NewEngine(nw, rng.New(12), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	return &fixture{nw: nw, sched: sched, db: db, view: view, amp: amp,
		victim: victim, engine: engine}
}

func (f *fixture) runAttack(rate float64, dur time.Duration, prime int) {
	f.engine.Launch(attack.Campaign{
		Victim: f.victim, Port: 80,
		Start: f.nw.Now().Add(time.Hour), Duration: dur,
		TriggerRate: rate, Amplifiers: []netaddr.Addr{f.amp.Addr()},
		PrimeSources: prime,
	})
	f.sched.Drain()
}

func TestViewContains(t *testing.T) {
	f := newFixture(t)
	if !f.view.Contains(f.amp.Addr()) {
		t.Fatal("view must contain its own amplifier")
	}
	if f.view.Contains(f.victim) {
		t.Fatal("view must not contain the external victim")
	}
}

func TestAttackProducesVictimAndAmplifier(t *testing.T) {
	f := newFixture(t)
	f.runAttack(2000, 2*time.Hour, 300)

	amps := f.view.Amplifiers()
	if len(amps) != 1 {
		t.Fatalf("view found %d amplifiers, want 1", len(amps))
	}
	a := amps[0]
	if a.Addr != f.amp.Addr() {
		t.Fatalf("amplifier = %v", a.Addr)
	}
	if a.BAF() <= AmplifierMinRatio {
		t.Fatalf("amplifier BAF = %.1f", a.BAF())
	}
	if !a.Victims.Has(f.victim) {
		t.Fatal("amplifier victim set missing the victim")
	}

	vics := f.view.Victims()
	if len(vics) != 1 || vics[0].Addr != f.victim {
		t.Fatalf("victims = %+v", vics)
	}
	v := vics[0]
	if v.PayloadIn < VictimMinBytes {
		t.Fatalf("victim payload = %d", v.PayloadIn)
	}
	if v.BAF() < VictimMinRatio {
		t.Fatalf("victim BAF = %.1f", v.BAF())
	}
	if v.DurationHours() < 1 {
		t.Fatalf("attack duration = %.2f h", v.DurationHours())
	}
	if v.Hourly.Len() < 2 {
		t.Fatal("victim hourly series too short")
	}
}

func TestVictimASNLookup(t *testing.T) {
	f := newFixture(t)
	asn, country := f.view.OwnerASN(f.victim)
	if asn != 4713 || country != "JP" {
		t.Fatalf("victim attribution = AS%d %s, want AS4713 JP", asn, country)
	}
}

func TestEgressIngressSeries(t *testing.T) {
	f := newFixture(t)
	f.runAttack(1000, time.Hour, 100)
	if _, ok := f.view.EgressNTP.Max(); !ok {
		t.Fatal("no egress NTP recorded")
	}
	if _, ok := f.view.IngressNTP.Max(); !ok {
		t.Fatal("no ingress NTP recorded")
	}
	eg, _ := f.view.EgressNTP.Max()
	ing, _ := f.view.IngressNTP.Max()
	if eg.Value <= ing.Value {
		t.Fatalf("egress (%v) must dwarf ingress (%v) during reflection", eg.Value, ing.Value)
	}
}

func TestTriggerTTLFingerprint(t *testing.T) {
	f := newFixture(t)
	f.runAttack(1000, time.Hour, 0)
	mode, _, ok := f.view.TriggerTTL.Mode()
	if !ok {
		t.Fatal("no trigger TTLs observed")
	}
	if mode < 105 || mode > 120 {
		t.Fatalf("trigger TTL mode = %d, want Windows band (105-120)", mode)
	}
}

func TestScannerClassification(t *testing.T) {
	f := newFixture(t)
	// A research scanner (Linux TTL, single probes) sweeps the amplifier.
	scanner := netaddr.MustParseAddr("141.212.1.1")
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	f.nw.SendUDP(scanner, 40000, f.amp.Addr(), ntp.Port, netsim.TTLLinux, probe)
	f.sched.Drain()
	scanners := f.view.Scanners()
	if len(scanners) != 1 || scanners[0].Addr != scanner {
		t.Fatalf("scanners = %+v", scanners)
	}
	mode, _, _ := f.view.ScanTTL.Mode()
	if mode < 41 || mode > 56 {
		t.Fatalf("scan TTL mode = %d, want Linux band (41-56)", mode)
	}
	if f.view.ScannerSet().Len() != 1 {
		t.Fatal("ScannerSet mismatch")
	}
}

func TestVictimThresholdFiltersLowVolume(t *testing.T) {
	f := newFixture(t)
	// A tiny attack: 1 pps for 1 minute through an unprimed (single-entry)
	// table produces well under 100 KB toward the victim.
	f.runAttack(1, time.Minute, 0)
	if len(f.view.Victims()) != 0 {
		t.Fatalf("sub-threshold victim reported: %+v", f.view.Victims()[0])
	}
	if len(f.view.Amplifiers()) != 0 {
		t.Fatal("sub-threshold amplifier reported")
	}
}

func TestBilling95RisesDuringAttack(t *testing.T) {
	f := newFixture(t)
	quietFrom := f.nw.Now()
	f.sched.RunUntil(f.nw.Now().Add(24 * time.Hour))
	quietTo := f.nw.Now()
	before := f.view.Billed95(quietFrom, quietTo)

	attackFrom := f.nw.Now()
	f.runAttack(5000, 20*time.Hour, 300)
	after := f.view.Billed95(attackFrom, f.nw.Now())
	if after <= before {
		t.Fatalf("95th-pct billing did not rise: before=%v after=%v", before, after)
	}
}

func TestAddBaselineAndProtoMix(t *testing.T) {
	f := newFixture(t)
	from := f.nw.Now()
	f.view.AddBaseline("http", from, from.Add(10*time.Hour), 1e9)
	ts := f.view.ProtoBytes["http"]
	if ts == nil || ts.Len() != 10 {
		t.Fatalf("http baseline buckets = %v", ts)
	}
	f.runAttack(1000, time.Hour, 100)
	if f.view.ProtoBytes["ntp"] == nil {
		t.Fatal("no ntp protocol bytes recorded")
	}
}

// TestPairVolume feeds one amplifier's egress to victims A, B, A, C — a
// return to an earlier victim after the last-victim memo moved on — and
// checks the amplifier's victim set and volume totals by hand: 440-byte
// responses are 506 bytes on the wire (see TestObserveAlternatingPairs).
func TestPairVolume(t *testing.T) {
	db := asdb.Build(rng.New(11), asdb.Config{NumASes: 50, SpooferFraction: 1})
	merit := db.ByName(asdb.NameMerit)
	v := New("Merit", db, merit)
	in := merit.Prefixes[0].Nth(100)
	ocn := db.ByName("OCN-JP").Prefixes[0]
	a, b, c := ocn.Nth(500), ocn.Nth(501), ocn.Nth(502)

	resp := make([]byte, 440)
	resp[0] = 0x97 // response bit, version 2, mode 7
	now := vtime.Epoch.Add(3 * time.Hour)
	for _, step := range []struct {
		dst netaddr.Addr
		rep int64
	}{{a, 2}, {b, 3}, {a, 1}, {c, 4}} {
		dg := packet.NewDatagram(in, 123, step.dst, 80, resp)
		dg.Rep = step.rep
		v.Observe(dg, now)
	}

	amp := v.amps[in]
	if amp == nil {
		t.Fatal("amplifier not tracked")
	}
	if n := amp.Victims.Len(); n != 3 {
		t.Errorf("amplifier victims = %d, want 3", n)
	}
	for _, want := range []netaddr.Addr{a, b, c} {
		if !amp.Victims.Has(want) {
			t.Errorf("amplifier victim set missing %v", want)
		}
	}
	if amp.PayloadOut != 10*440 || amp.WireOut != 10*506 {
		t.Errorf("amplifier out = %d payload / %d wire bytes, want 4400 / 5060", amp.PayloadOut, amp.WireOut)
	}
	if got := v.victims[a]; got == nil || got.PayloadIn != 3*440 || got.WireIn != 3*506 || got.Packets != 3 {
		t.Errorf("victim A = %+v, want 1320 payload / 1518 wire bytes in 3 packets", got)
	}
	if _, ok := v.victims[in]; ok {
		t.Error("the amplifier was tracked as a victim")
	}
}

// TestObserveAlternatingPairs feeds one view in→out, out→in and out→out
// packets in alternation, with repeats, so the (src, dst) classification
// memo is hit, missed and re-filled, and checks every total against values
// worked out by hand. On-wire sizes: a 440-byte response is 20+8+440 = 468
// IP bytes, +18 Ethernet = 486, +20 preamble/gap = 506; a 48-byte padded
// monlist request is 76 IP bytes, 94 framed, 114 on the wire.
func TestObserveAlternatingPairs(t *testing.T) {
	db := asdb.Build(rng.New(11), asdb.Config{NumASes: 50, SpooferFraction: 1})
	merit := db.ByName(asdb.NameMerit)
	v := New("Merit", db, merit)
	in := merit.Prefixes[0].Nth(100)
	out1 := db.ByName("OCN-JP").Prefixes[0].Nth(500)
	out2 := db.ByName("OCN-JP").Prefixes[0].Nth(501)

	resp := make([]byte, 440)
	resp[0] = 0x97 // response bit, version 2, mode 7
	req := ntp.NewMonlistRequestPadded(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	now := vtime.Epoch.Add(3 * time.Hour)
	send := func(src, dst netaddr.Addr, sport, dport uint16, ttl uint8, payload []byte, rep int64) {
		dg := packet.NewDatagram(src, sport, dst, dport, payload)
		dg.IP.TTL = ttl
		dg.Rep = rep
		v.Observe(dg, now)
	}
	egress := func(dst netaddr.Addr, rep int64) { send(in, dst, 123, 80, 54, resp, rep) }
	ingress := func(src netaddr.Addr, ttl uint8, rep int64) { send(src, in, 80, 123, ttl, req, rep) }
	outside := func(rep int64) { send(out1, out2, 80, 123, 109, req, rep) }

	egress(out1, 3)       // in→out
	egress(out1, 2)       // repeat
	ingress(out1, 109, 5) // out→in: a trigger batch (Rep > 1) spoofing out1
	outside(7)            // out→out: not ours
	egress(out2, 1)       // in→out, same source, new destination
	ingress(out2, 54, 1)  // out→in: a single scanner probe
	ingress(out2, 54, 1)  // repeat
	outside(7)            // repeat
	egress(out1, 4)       // back to the first pair
	send(out2, out1, 123, 80, 54, resp, 1)

	const wireResp, wireReq = 506, 114
	if got, want := v.EgressNTP.At(now), float64((3+2+1+4)*wireResp); got != want {
		t.Errorf("EgressNTP = %v, want %v", got, want)
	}
	if got, want := v.IngressNTP.At(now), float64((5+1+1)*wireReq); got != want {
		t.Errorf("IngressNTP = %v, want %v", got, want)
	}
	if got, want := v.ProtoBytes["ntp"].At(now), float64(10*wireResp+7*wireReq); got != want {
		t.Errorf("ntp protocol bytes = %v, want %v (out→out traffic leaked in)", got, want)
	}
	amp := v.amps[in]
	if amp == nil || amp.PayloadOut != 10*440 || amp.PayloadIn != 7*48 || amp.WireOut != 10*wireResp {
		t.Fatalf("amplifier totals = %+v, want payload out 4400, in 336, wire out 5060", amp)
	}
	if amp.Victims.Len() != 2 || !amp.Victims.Has(out1) || !amp.Victims.Has(out2) {
		t.Errorf("amplifier victims = %d, want out1 and out2", amp.Victims.Len())
	}
	v1, v2 := v.victims[out1], v.victims[out2]
	if v1 == nil || v1.PayloadIn != 9*440 || v1.WireIn != 9*wireResp || v1.Packets != 9 || v1.TriggerOut != 5*48 {
		t.Errorf("victim out1 = %+v, want 3960 payload / 4554 wire bytes in 9 packets, 240 trigger bytes", v1)
	}
	if v2 == nil || v2.PayloadIn != 440 || v2.Packets != 1 || v2.TriggerOut != 0 {
		t.Errorf("victim out2 = %+v, want 440 payload bytes in 1 packet, no triggers", v2)
	}
	if sc := v.scanners[out2]; sc == nil || sc.Packets != 2 || len(v.scanners) != 1 {
		t.Errorf("scanners = %v, want out2 with 2 probes", v.scanners)
	}
	if v.TriggerTTL.Count(109) != 5 || v.ScanTTL.Count(54) != 2 {
		t.Errorf("TTL histograms: trigger@109 = %d, scan@54 = %d; want 5, 2",
			v.TriggerTTL.Count(109), v.ScanTTL.Count(54))
	}
}

// TestObserveSteadyStateAllocs is the tap's allocation wall: once a
// site-amplifier→victim pair has been seen, observing another fragment of
// the same reflection allocates nothing.
func TestObserveSteadyStateAllocs(t *testing.T) {
	db := asdb.Build(rng.New(11), asdb.Config{NumASes: 50, SpooferFraction: 1})
	merit := db.ByName(asdb.NameMerit)
	v := New("Merit", db, merit)
	resp := make([]byte, 440)
	resp[0] = 0x97 // response bit, version 2, mode 7
	dg := packet.NewDatagram(merit.Prefixes[0].Nth(100), 123, db.ByName("OCN-JP").Prefixes[0].Nth(500), 80, resp)
	dg.Rep = 3
	now := vtime.Epoch.Add(3 * time.Hour)
	v.Observe(dg, now)
	if n := testing.AllocsPerRun(1000, func() { v.Observe(dg, now) }); n != 0 {
		t.Fatalf("Observe allocated %.1f times per fragment, want 0", n)
	}
}
