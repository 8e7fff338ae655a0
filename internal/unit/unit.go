// Package unit defines the physical quantities used throughout SiloD:
// byte sizes, bandwidths, and simulated time. All simulator math is done
// in float64 seconds and float64 bytes; these types exist to keep call
// sites self-describing and to centralize parsing and formatting.
package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bytes is a data size in bytes. Negative values are invalid everywhere
// they would be observable; constructors and parsers reject them.
type Bytes float64

// Common byte-size units (binary, matching the paper's GB/TB usage).
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// GiB returns n gibibytes.
func GiB(n float64) Bytes { return Bytes(n) * GB }

// TiB returns n tebibytes.
func TiB(n float64) Bytes { return Bytes(n) * TB }

// String formats the size with the largest unit that keeps the value >= 1.
func (b Bytes) String() string {
	abs := math.Abs(float64(b))
	switch {
	case abs >= float64(TB):
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case abs >= float64(GB):
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case abs >= float64(MB):
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case abs >= float64(KB):
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%.0fB", float64(b))
	}
}

// Changed reports whether b differs from prev. Both sides must flow
// from the same assignment (a stored copy of the previous round's
// allocation against the proposed one): then the comparison is exact
// state-change detection, not numerical equality, and the floatcmp
// hazard (accumulated rounding) does not apply. This is the sanctioned
// spelling of that pattern — silodlint's floatcmp analyzer rejects a
// bare != on unit types.
func (b Bytes) Changed(prev Bytes) bool { return b != prev }

// ParseBytes parses strings like "143GB", "1.36TB", "512", "64MB".
// A bare number is interpreted as bytes.
func ParseBytes(s string) (Bytes, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("unit: empty byte size")
	}
	units := []struct {
		suffix string
		mul    Bytes
	}{
		{"TB", TB}, {"TiB", TB}, {"GB", GB}, {"GiB", GB},
		{"MB", MB}, {"MiB", MB}, {"KB", KB}, {"KiB", KB}, {"B", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("unit: parse %q: %v", s, err)
			}
			if v < 0 {
				return 0, fmt.Errorf("unit: negative byte size %q", s)
			}
			return Bytes(v) * u.mul, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unit: parse %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("unit: negative byte size %q", s)
	}
	return Bytes(v), nil
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Common bandwidth units.
const (
	KBps Bandwidth = Bandwidth(KB)
	MBps Bandwidth = Bandwidth(MB)
	GBps Bandwidth = Bandwidth(GB)
)

// Gbps converts gigabits per second to a Bandwidth, matching the paper's
// convention that 1.6 Gbps == 200 MB/s (i.e. 1 Gbps == 125 MB/s).
func Gbps(n float64) Bandwidth { return Bandwidth(n * 125 * float64(MB)) }

// MBpsOf returns n megabytes per second.
func MBpsOf(n float64) Bandwidth { return Bandwidth(n) * MBps }

// GBpsOf returns n gigabytes per second.
func GBpsOf(n float64) Bandwidth { return Bandwidth(n) * GBps }

// String formats the bandwidth in the most natural unit.
func (bw Bandwidth) String() string {
	abs := math.Abs(float64(bw))
	switch {
	case abs >= float64(GBps):
		return fmt.Sprintf("%.2fGB/s", float64(bw)/float64(GBps))
	case abs >= float64(MBps):
		return fmt.Sprintf("%.2fMB/s", float64(bw)/float64(MBps))
	case abs >= float64(KBps):
		return fmt.Sprintf("%.2fKB/s", float64(bw)/float64(KBps))
	default:
		return fmt.Sprintf("%.0fB/s", float64(bw))
	}
}

// MBpsValue reports the bandwidth in MB/s, the unit used by the paper's
// figures and by perf estimators.
func (bw Bandwidth) MBpsValue() float64 { return float64(bw) / float64(MBps) }

// Changed reports whether bw differs from prev — exact state-change
// detection for stored-copy comparisons; see Bytes.Changed.
func (bw Bandwidth) Changed(prev Bandwidth) bool { return bw != prev }

// PerSecond reinterprets a byte quantity as the rate that moves that
// many bytes each second — the one sanctioned Bytes -> Bandwidth
// conversion (silodlint's unitsafety analyzer rejects the bare cast).
func PerSecond(b Bytes) Bandwidth { return Bandwidth(b) }

// ParseBandwidth parses strings like "1GB/s", "400MB/s", or "200MB"
// (a bare byte size is taken per second).
func ParseBandwidth(s string) (Bandwidth, error) {
	b, err := ParseBytes(strings.TrimSuffix(strings.TrimSpace(s), "/s"))
	if err != nil {
		return 0, err
	}
	return PerSecond(b), nil
}

// Time is a point in simulated time, in seconds since simulation start.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration float64

// Common durations.
const (
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * 3600
)

// Minutes reports the duration in minutes (the paper's JCT unit).
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats a duration compactly, e.g. "3366.0min" or "45.0s".
func (d Duration) String() string {
	if math.Abs(float64(d)) >= float64(Minute) {
		return fmt.Sprintf("%.1fmin", d.Minutes())
	}
	return fmt.Sprintf("%.1fs", float64(d))
}

// Add advances a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Minutes reports the time in minutes since simulation start.
func (t Time) Minutes() float64 { return float64(t) / float64(Minute) }

// Elapsed reports t as the duration since simulation start — the one
// sanctioned Time -> Duration conversion (silodlint's unitsafety
// analyzer rejects the bare cast).
func (t Time) Elapsed() Duration { return Duration(t) }

// DivBandwidth reports how long transferring b bytes takes at rate bw.
// It returns +Inf for a non-positive bandwidth and a positive size.
func DivBandwidth(b Bytes, bw Bandwidth) Duration {
	if bw <= 0 {
		if b <= 0 {
			return 0
		}
		return Duration(math.Inf(1))
	}
	return Duration(float64(b) / float64(bw))
}

// CeilDiv reports how many whole blocks of the given size cover b.
// Non-positive block sizes yield 0.
func CeilDiv(b, block Bytes) int {
	if block <= 0 {
		return 0
	}
	return int((b + block - 1) / block)
}

// AlignUp rounds b up to the next multiple of align (b unchanged if
// align is non-positive).
func AlignUp(b, align Bytes) Bytes {
	if align <= 0 {
		return b
	}
	return Bytes(CeilDiv(b, align)) * align
}
