package unit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByteConstructors(t *testing.T) {
	cases := []struct {
		got  Bytes
		want float64
	}{
		{GiB(1), 1 << 30},
		{TiB(2), 2 << 40},
		{143 * GB, 143 * (1 << 30)},
	}
	for i, c := range cases {
		if float64(c.got) != c.want {
			t.Errorf("case %d: got %v want %v", i, float64(c.got), c.want)
		}
	}
}

func TestByteString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{TiB(1.36), "1.36TB"},
		{GiB(143), "143.00GB"},
		{64 * MB, "64.00MB"},
		{512, "512B"},
		{KB, "1.00KB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"143GB", GiB(143)},
		{"1.36TB", TiB(1.36)},
		{"64MB", 64 * MB},
		{"512", 512},
		{" 2KB ", 2 * KB},
		{"3KiB", 3 * KB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("ParseBytes(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
	for _, bad := range []string{"", "abc", "-3GB", "GB", "12XB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	// Property: parsing the formatted value recovers it within the
	// 2-decimal precision of String.
	f := func(raw uint32) bool {
		b := Bytes(raw) * MB / 7 // spread over MB..TB ranges
		parsed, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		if b == 0 {
			return parsed == 0
		}
		return math.Abs(float64(parsed-b))/float64(b) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidth(t *testing.T) {
	if got := Gbps(1.6); math.Abs(float64(got)-200*float64(MB)) > 1 {
		t.Errorf("Gbps(1.6) = %v, want 200 MB/s", got)
	}
	if got := MBpsOf(114).MBpsValue(); got != 114 {
		t.Errorf("MBpsValue = %v", got)
	}
	if s := GBpsOf(4).String(); s != "4.00GB/s" {
		t.Errorf("String = %q", s)
	}
}

func TestChanged(t *testing.T) {
	if Bytes(64 * MB).Changed(64 * MB) {
		t.Error("Bytes.Changed on equal copies = true, want false")
	}
	if !Bytes(64 * MB).Changed(128 * MB) {
		t.Error("Bytes.Changed on different values = false, want true")
	}
	if Bytes(0).Changed(0) {
		t.Error("Bytes.Changed on zero = true, want false")
	}
	if MBpsOf(200).Changed(MBpsOf(200)) {
		t.Error("Bandwidth.Changed on equal copies = true, want false")
	}
	if !MBpsOf(200).Changed(0) {
		t.Error("Bandwidth.Changed on different values = false, want true")
	}
	// A stored copy compares equal to itself: copy-then-compare is the
	// sanctioned pattern these helpers exist for.
	if err := quick.Check(func(v float64) bool {
		b := Bytes(v)
		stored := b
		return !b.Changed(stored)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Errorf("Add: %v", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Errorf("Sub: %v", d)
	}
	if m := (90 * Minute).Minutes(); m != 90 {
		t.Errorf("Minutes: %v", m)
	}
	if m := Time(120).Minutes(); m != 2 {
		t.Errorf("Time.Minutes: %v", m)
	}
}

func TestDurationString(t *testing.T) {
	if s := (90 * Minute).String(); s != "90.0min" {
		t.Errorf("got %q", s)
	}
	if s := Duration(30).String(); s != "30.0s" {
		t.Errorf("got %q", s)
	}
}

func TestDivBandwidth(t *testing.T) {
	if d := DivBandwidth(200*MB, MBpsOf(100)); d != 2 {
		t.Errorf("DivBandwidth = %v, want 2s", d)
	}
	if d := DivBandwidth(1, 0); !math.IsInf(float64(d), 1) {
		t.Errorf("zero bandwidth should be +Inf, got %v", d)
	}
	if d := DivBandwidth(0, 0); d != 0 {
		t.Errorf("zero bytes at zero bandwidth should be 0, got %v", d)
	}
}
