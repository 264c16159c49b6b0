package faults

import (
	"reflect"
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	cases := []struct {
		in   string
		want Plan
	}{
		{"", Plan{}},
		{"  ", Plan{}},
		{"reset@1.5MB", Plan{Faults: []Fault{{Kind: Reset, AfterBytes: 3 << 19}}}},
		{"stall@2MB:200ms", Plan{Faults: []Fault{{Kind: Stall, AfterBytes: 2 << 20, Stall: 200 * time.Millisecond}}}},
		{"stall@64KB", Plan{Faults: []Fault{{Kind: Stall, AfterBytes: 64 << 10, Stall: time.Second}}}},
		{"corrupt@3MB:bit7", Plan{Faults: []Fault{{Kind: Corrupt, AfterBytes: 3 << 20, Bit: 7}}}},
		{"corrupt@4KB", Plan{Faults: []Fault{{Kind: Corrupt, AfterBytes: 4 << 10, Bit: -1}}}},
		{"reset@w12", Plan{Faults: []Fault{{Kind: Reset, AfterWrites: 12}}}},
		{"seed=99", Plan{Seed: 99}},
		{"reset@100, stall@200B:1s ,seed=-3", Plan{
			Seed:   -3,
			Faults: []Fault{{Kind: Reset, AfterBytes: 100}, {Kind: Stall, AfterBytes: 200, Stall: time.Second}},
		}},
	}
	for _, c := range cases {
		got, err := ParseFaultPlan(c.in)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseFaultPlan(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseFaultPlanRejects(t *testing.T) {
	bad := []string{
		"explode@1MB",       // unknown kind
		"reset",             // no trigger
		"reset@",            // empty trigger
		"reset@-5",          // negative bytes
		"reset@1.0001KB",    // fractional bytes
		"reset@1MB:200ms",   // reset takes no argument
		"stall@1MB:-1s",     // negative stall
		"stall@1MB:0s",      // a zero stall pauses nothing
		"corrupt@1MB:7",     // corrupt arg without 'bit'
		"corrupt@1MB:bit-1", // negative bit
		"reset@w0",          // write ordinals are 1-based
		"seed=x",            // non-numeric seed
		"refuse:2-4",        // refused accepts have no text form
		"reset@100, stall@200B:1s ,refuse:0-1,seed=-3",
	}
	for _, in := range bad {
		if _, err := ParseFaultPlan(in); err == nil {
			t.Errorf("ParseFaultPlan(%q) succeeded, want error", in)
		}
	}
}

// TestFaultPlanRoundTrip pins parse(format(parse(s))) == parse(s) on
// representative plans, the property FuzzLoadgenFaultPlan extends to
// arbitrary input.
func TestFaultPlanRoundTrip(t *testing.T) {
	plans := []string{
		"reset@1.5MB",
		"stall@2MB:200ms,corrupt@3MB:bit7",
		"corrupt@w3,seed=99",
		"reset@w1,reset@w2,stall@64KB,seed=-17",
		"",
	}
	for _, in := range plans {
		p, err := ParseFaultPlan(in)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", in, err)
		}
		text := FormatFaultPlan(p)
		p2, err := ParseFaultPlan(text)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", text, in, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip of %q diverged:\n first %+v\nsecond %+v (via %q)", in, p, p2, text)
		}
		if again := FormatFaultPlan(p2); again != text {
			t.Fatalf("format not canonical: %q then %q", text, again)
		}
	}
}

// FuzzLoadgenFaultPlan fuzzes the loadgen's -fault-plan parser: any
// input either errors cleanly or round-trips — parse → format → parse
// yields the identical Plan and a stable canonical form, with no
// panics. Mirrors the ParseTopoSchedule round-trip tests.
func FuzzLoadgenFaultPlan(f *testing.F) {
	f.Add("reset@1.5MB")
	f.Add("stall@2MB:200ms,corrupt@3MB:bit7")
	f.Add("corrupt@w3,seed=99")
	f.Add("reset@100,stall@200B:1s,seed=-3")
	f.Add("")
	f.Add("seed=9223372036854775807")
	f.Add("corrupt@0:bit0")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		text := FormatFaultPlan(p)
		p2, err := ParseFaultPlan(text)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not reparse: %v", text, s, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip of %q diverged via %q:\n first %+v\nsecond %+v", s, text, p, p2)
		}
		if again := FormatFaultPlan(p2); again != text {
			t.Fatalf("format not canonical for %q: %q then %q", s, text, again)
		}
	})
}
