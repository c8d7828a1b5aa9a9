package pcap

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReader drives the capture reader onpdump and ntpwatch point at
// foreign files: arbitrary bytes must read cleanly or fail, never panic,
// and every packet read must fit both the file's snap length and the
// reader's 16 MiB record bound.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Date(2014, 1, 10, 2, 30, 0, 0, time.UTC)
	for _, data := range [][]byte{{0x45, 0, 0, 20}, bytes.Repeat([]byte{0xaa}, 64)} {
		if err := w.WritePacket(Packet{Timestamp: ts, Data: data}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	// The big-endian capture of TestBigEndianCapture: one 3-byte record.
	f.Add([]byte{
		0xa1, 0xb2, 0xc3, 0xd4, 0, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 101,
		0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3,
		0xaa, 0xbb, 0xcc,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		pkts, _ := r.ReadAll()
		for i, p := range pkts {
			if len(p.Data) > r.SnapLen || len(p.Data) > 1<<24 {
				t.Fatalf("packet %d holds %d bytes; snap length %d", i, len(p.Data), r.SnapLen)
			}
		}
	})
}
