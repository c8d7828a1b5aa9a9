package ntpd

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/metrics"
	"ntpddos/internal/metrics/metricstest"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
)

// serveUDP runs a daemon on a real loopback socket via the Respond path —
// the same code cmd/ntpdsim uses — until the returned stop func is called.
func serveUDP(t *testing.T, srv *Server) (*net.UDPAddr, func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 2048)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				close(done)
				return
			}
			v4 := peer.IP.To4()
			src := netaddr.Addr(uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3]))
			payload := make([]byte, n)
			copy(payload, buf[:n])
			for _, r := range srv.Respond(payload, src, uint16(peer.Port), time.Now()) {
				conn.WriteToUDP(r, peer)
			}
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr), func() { conn.Close(); <-done }
}

// exchange sends one probe and collects responses until a short deadline.
func exchange(t *testing.T, server *net.UDPAddr, probe []byte) [][]byte {
	t.Helper()
	conn, err := net.DialUDP("udp4", nil, server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(probe); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	buf := make([]byte, 65535)
	for {
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			return out
		}
		pl := make([]byte, n)
		copy(pl, buf[:n])
		out = append(out, pl)
	}
}

func TestRealUDPMonlistRoundTrip(t *testing.T) {
	srv := New(Config{Addr: 0, MonlistEnabled: true, Stratum: 2,
		Profile: Profile{SystemString: "linux", TTL: 64}})
	for i := 0; i < 40; i++ {
		srv.Record(netaddr.Addr(0x0a000000+uint32(i)), ntp.Port, ntp.ModeClient, 4, 1, time.Now())
	}
	addr, stop := serveUDP(t, srv)
	defer stop()

	payloads := exchange(t, addr, ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	if len(payloads) != 7 { // ceil(41 entries / 6 per packet): 40 clients + the prober
		t.Fatalf("got %d response packets, want 7", len(payloads))
	}
	var entries []ntp.MonEntry
	for _, p := range payloads {
		_, es, err := ntp.ParseMonlistResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, es...)
	}
	if len(entries) != 41 {
		t.Fatalf("rebuilt %d entries over real UDP, want 41", len(entries))
	}
	// The prober (127.0.0.1) must be in the table.
	found := false
	for _, e := range entries {
		if e.Addr == netaddr.MustParseAddr("127.0.0.1") {
			found = true
		}
	}
	if !found {
		t.Fatal("prober missing from monitor table")
	}
}

func TestRealUDPVersionRoundTrip(t *testing.T) {
	srv := New(Config{Addr: 0, Mode6Enabled: true, Stratum: 16,
		Profile: Profile{SystemString: "cisco",
			VersionString: "ntpd IOS 12.2(17) compiled Mar 3 2006"}})
	addr, stop := serveUDP(t, srv)
	defer stop()

	payloads := exchange(t, addr, ntp.NewReadVarRequest(5))
	if len(payloads) == 0 {
		t.Fatal("no version response over real UDP")
	}
	var frags []*ntp.Mode6
	for _, p := range payloads {
		m, err := ntp.DecodeMode6(p)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, m)
	}
	text, err := ntp.ReassembleMode6(frags)
	if err != nil {
		t.Fatal(err)
	}
	v := ntp.ParseSystemVariables(text)
	if v.System != "cisco" || v.Stratum != 16 || core.ExtractCompileYear(v.Version) != 2006 {
		t.Fatalf("parsed %+v", v)
	}
}

func TestRealUDPPatchedServerSilent(t *testing.T) {
	srv := New(Config{Addr: 0, MonlistEnabled: false, Profile: Profile{TTL: 64}})
	addr, stop := serveUDP(t, srv)
	defer stop()
	payloads := exchange(t, addr, ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	if len(payloads) != 0 {
		t.Fatalf("patched daemon answered %d packets over real UDP", len(payloads))
	}
}

func TestRealUDPClientMode(t *testing.T) {
	srv := New(Config{Addr: 0, Stratum: 3, Profile: Profile{TTL: 64}})
	addr, stop := serveUDP(t, srv)
	defer stop()
	req := ntp.NewClientRequest(time.Now()).AppendTo(nil)
	payloads := exchange(t, addr, req)
	if len(payloads) != 1 {
		t.Fatalf("mode 3 got %d responses", len(payloads))
	}
	var h ntp.Header
	if err := h.DecodeFromBytes(payloads[0]); err != nil {
		t.Fatal(err)
	}
	if h.Mode != ntp.ModeServer || h.Stratum != 3 {
		t.Fatalf("reply %+v", h)
	}
}

// TestRealUDPScrape is the cmd/ntpdsim acceptance path at package level: a
// metrics-instrumented daemon serving real UDP whose /metrics endpoint,
// scraped over real HTTP mid-traffic, parses cleanly and shows the queries.
func TestRealUDPScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(Config{Addr: 0, MonlistEnabled: true, Mode6Enabled: true,
		Stratum: 2, Metrics: NewMetrics(reg),
		Profile: Profile{SystemString: "linux", TTL: 64}})
	for i := 0; i < 10; i++ {
		srv.Record(netaddr.Addr(0x0a000000+uint32(i)), ntp.Port, ntp.ModeClient, 4, 1, time.Now())
	}
	addr, stop := serveUDP(t, srv)
	defer stop()

	exp, err := metrics.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		exp.Shutdown(ctx)
	}()
	exp.SetReady(true)

	if got := exchange(t, addr, ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)); len(got) == 0 {
		t.Fatal("no monlist response")
	}
	if got := exchange(t, addr, ntp.NewReadVarRequest(3)); len(got) == 0 {
		t.Fatal("no readvar response")
	}

	resp, err := http.Get("http://" + exp.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metricstest.Parse(string(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if err := metricstest.Check(fams); err != nil {
		t.Fatalf("scrape inconsistent: %v", err)
	}
	queries := fams["ntpsim_ntpd_queries_total"]
	if queries == nil {
		t.Fatalf("no ntpsim_ntpd_queries_total in scrape:\n%s", body)
	}
	var total float64
	for _, s := range queries.Samples {
		total += s.Value
	}
	if total < 2 {
		t.Fatalf("queries_total = %v, want >= 2 (monlist + readvar)", total)
	}
	mru := fams["ntpsim_ntpd_mru_entries"]
	if mru == nil || len(mru.Samples) == 0 || mru.Samples[0].Value != float64(srv.MRULen()) {
		t.Fatalf("mru gauge %+v, table has %d entries", mru, srv.MRULen())
	}
}

func TestRealUDPPeerList(t *testing.T) {
	srv := New(Config{Addr: 0, MonlistEnabled: true,
		Peers:   []netaddr.Addr{netaddr.MustParseAddr("129.6.15.28")},
		Profile: Profile{TTL: 64}})
	addr, stop := serveUDP(t, srv)
	defer stop()
	payloads := exchange(t, addr, ntp.NewMonlistRequestPadded(ntp.ImplXNTPD, ntp.ReqPeerList))
	if len(payloads) != 1 {
		t.Fatalf("peer list got %d responses", len(payloads))
	}
	_, peers, err := ntp.ParsePeerListResponse(payloads[0])
	if err != nil || len(peers) != 1 {
		t.Fatalf("peers %v %v", peers, err)
	}
	if peers[0].Addr != netaddr.MustParseAddr("129.6.15.28") {
		t.Fatalf("peer %v", peers[0].Addr)
	}
}
