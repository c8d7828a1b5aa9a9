package ntpd

import (
	"fmt"

	"ntpddos/internal/rng"
)

// Profile is the identity a daemon reports over mode 6: the system string
// (Table 2's "OS" column), the full version string with compile date, and
// the processor. TTL is the OS's default initial TTL, which shapes the
// §7.2 fingerprints.
type Profile struct {
	SystemString  string
	VersionString string
	Processor     string
	TTL           uint8
	CompileYear   int
}

// Role selects which of the paper's Table 2 populations a profile is drawn
// from. The three columns differ sharply — mega amplifiers are mostly Linux
// and Junos, general amplifiers overwhelmingly Linux, while the overall NTP
// population is half Cisco.
type Role int

// Roles.
const (
	RoleAllNTP Role = iota
	RoleAmplifier
	RoleMegaAmp
	// RolePlain is the non-amplifier remainder of the version pool, with
	// weights derived so that the *blend* of amplifiers (linux-heavy) and
	// plain servers reproduces Table 2's all-NTP column (cisco-heavy).
	RolePlain
)

// systemCatalog lists the Table 2 system strings in a fixed order. The three
// weight vectors are the paper's measured percentages, used directly: these
// are population properties of the 2014 Internet, not derivable quantities.
var systemCatalog = []string{
	"linux", "junos", "bsd", "cygwin", "vmkernel", "unix",
	"windows", "sun", "secureos", "isilon", "cisco", "qnx", "darwin", "other",
}

var (
	weightsMega = []float64{
		44.18, 35.85, 9.18, 4.82, 2.41, 2.01,
		0.42, 0.37, 0.25, 0.23, 0.06, 0.0, 0.0, 0.21,
	}
	weightsAmplifier = []float64{
		80.22, 3.43, 11.08, 0.0, 1.42, 0.56,
		0.84, 0.25, 0.49, 0.0, 0.17, 0.22, 0.92, 0.41,
	}
	weightsAllNTP = []float64{
		18.97, 0.33, 0.97, 0.0, 0.10, 30.64,
		0.07, 0.21, 0.03, 0.0, 48.39, 0.02, 0.13, 0.14,
	}
	// weightsPlain solve blend(0.12 × amplifier + 0.88 × plain) ≈ all-NTP
	// for the scenario's amplifier/plain version-responder mix.
	weightsPlain = []float64{
		10.6, 0.0, 0.0, 0.0, 0.0, 34.7,
		0.0, 0.2, 0.0, 0.0, 54.3, 0.0, 0.0, 0.2,
	}
)

var (
	tableMega      = rng.NewWeightedTable(weightsMega)
	tableAmplifier = rng.NewWeightedTable(weightsAmplifier)
	tableAllNTP    = rng.NewWeightedTable(weightsAllNTP)
	tablePlain     = rng.NewWeightedTable(weightsPlain)
)

// compileYearBuckets encodes §3.3's version-age findings: 13% compiled
// before 2004, 23% before 2010, 48% before 2011, 59% before 2012, and only
// 21% in 2013–2014.
var compileYearBuckets = []struct {
	weight float64
	minY   int
	maxY   int
}{
	{13, 1999, 2003},
	{10, 2004, 2009},
	{25, 2010, 2010},
	{11, 2011, 2011},
	{20, 2012, 2012},
	{21, 2013, 2014},
}

var tableCompileYear = func() *rng.WeightedTable {
	w := make([]float64, len(compileYearBuckets))
	for i, b := range compileYearBuckets {
		w[i] = b.weight
	}
	return rng.NewWeightedTable(w)
}()

// ttlFor maps a system string to its OS default initial TTL.
func ttlFor(system string) uint8 {
	switch system {
	case "cisco", "sun", "secureos", "qnx":
		return 255
	case "windows", "cygwin":
		return 128
	default: // linux, unix, bsd, junos, vmkernel, darwin, isilon, other
		return 64
	}
}

// processorFor picks a plausible processor string.
func processorFor(system string, src *rng.Source) string {
	switch system {
	case "cisco", "junos":
		return "" // network gear reports no processor
	case "sun":
		return "sparc"
	default:
		if src.Bool(0.8) {
			return "x86_64"
		}
		return "i686"
	}
}

// months in ctime order for version strings.
var months = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun",
	"Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// versionFor builds an ntpd-style version banner whose compile year is
// sampled from the §3.3 age distribution. Cisco and Junos devices report
// their firmware trains instead.
func versionFor(system string, src *rng.Source) (banner string, year int) {
	year = sampleCompileYear(src)
	switch system {
	case "cisco":
		return fmt.Sprintf("ntpd IOS 12.%d(%d) compiled %s %d %d",
			1+src.IntN(4), 1+src.IntN(25), months[src.IntN(12)], 1+src.IntN(28), year), year
	case "junos":
		return fmt.Sprintf("ntpd 4.2.0-a (JUNOS %d.%dR%d) %s %d %d",
			9+src.IntN(5), 1+src.IntN(4), 1+src.IntN(9), months[src.IntN(12)], 1+src.IntN(28), year), year
	default:
		minor := 0
		switch {
		case year >= 2013:
			minor = 6 + src.IntN(2) // 4.2.6/4.2.7
		case year >= 2010:
			minor = 4 + src.IntN(3)
		default:
			minor = src.IntN(5)
		}
		return fmt.Sprintf("ntpd 4.2.%dp%d@1.%d-o %s %s %d %02d:%02d:%02d UTC %d (1)",
			minor, src.IntN(9), 1500+src.IntN(1000),
			[]string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}[src.IntN(7)],
			months[src.IntN(12)], 1+src.IntN(28),
			src.IntN(24), src.IntN(60), src.IntN(60), year), year
	}
}

func sampleCompileYear(src *rng.Source) int {
	b := compileYearBuckets[tableCompileYear.Draw(src)]
	return b.minY + src.IntN(b.maxY-b.minY+1)
}

// SampleProfile draws a daemon identity for the given role.
func SampleProfile(src *rng.Source, role Role) Profile {
	var idx int
	switch role {
	case RoleMegaAmp:
		idx = tableMega.Draw(src)
	case RoleAmplifier:
		idx = tableAmplifier.Draw(src)
	case RolePlain:
		idx = tablePlain.Draw(src)
	default:
		idx = tableAllNTP.Draw(src)
	}
	system := systemCatalog[idx]
	banner, year := versionFor(system, src)
	return Profile{
		SystemString:  system,
		VersionString: banner,
		Processor:     processorFor(system, src),
		TTL:           ttlFor(system),
		CompileYear:   year,
	}
}

// SystemCatalog returns the Table 2 system strings in canonical order.
func SystemCatalog() []string {
	out := make([]string, len(systemCatalog))
	copy(out, systemCatalog)
	return out
}
