package faults

// A compact text form for connection-level fault plans, so drills and
// the loadgen CLI can take a whole Plan on the command line the way
// churn drills take a topology-event file. The grammar is a comma-
// separated item list:
//
//	item   := fault | seed
//	fault  := kind '@' trigger (':' arg)?
//	kind   := 'reset' | 'stall' | 'corrupt'
//	trigger:= <bytes>            cumulative bytes offered to Write
//	        | 'w' <n>            cumulative Write ordinal (1-based)
//	arg    := <duration>         stall length   (stall faults; > 0,
//	                             1s when omitted)
//	        | 'bit' <n>          pinned bit     (corrupt faults; a
//	                             seeded-random bit when omitted)
//	seed   := 'seed=' <n>
//
// Byte counts accept KB/MB suffixes (binary units, decimals allowed:
// "1.5MB"). Examples:
//
//	reset@1.5MB
//	stall@2MB:200ms,corrupt@3MB:bit7
//	corrupt@w3,seed=99
//
// Plan.Refuse has no text form: the programs wrap no listener, so a
// refused-accept window would parse and apply nowhere. FormatFaultPlan
// renders a canonical form ParseFaultPlan reads back to an identical
// Plan — the round-trip property FuzzLoadgenFaultPlan pins, mirroring
// the TopoSchedule Parse/Format pair.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// defaultStall is the pause of a stall fault written without a duration.
const defaultStall = time.Second

// ParseFaultPlan parses the compact text form above. An empty (or all-
// whitespace) string is the zero Plan: no faults.
func ParseFaultPlan(s string) (Plan, error) {
	var p Plan
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		lower := strings.ToLower(item)
		switch {
		case strings.HasPrefix(lower, "seed="):
			n, err := strconv.ParseInt(item[len("seed="):], 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad seed in %q: %v", item, err)
			}
			p.Seed = n
		default:
			f, err := parseFault(item)
			if err != nil {
				return Plan{}, err
			}
			p.Faults = append(p.Faults, f)
		}
	}
	return p, nil
}

func parseFault(item string) (Fault, error) {
	kindS, rest, ok := strings.Cut(item, "@")
	if !ok {
		return Fault{}, fmt.Errorf("faults: fault %q wants '<kind>@<trigger>'", item)
	}
	var f Fault
	switch strings.ToLower(strings.TrimSpace(kindS)) {
	case "reset":
		f.Kind = Reset
	case "stall":
		f.Kind = Stall
		f.Stall = defaultStall
	case "corrupt":
		f.Kind = Corrupt
		f.Bit = -1 // seeded-random bit unless pinned below
	default:
		return Fault{}, fmt.Errorf("faults: unknown fault kind in %q", item)
	}
	trigger, arg, hasArg := strings.Cut(rest, ":")
	trigger = strings.TrimSpace(trigger)
	if len(trigger) > 1 && (trigger[0] == 'w' || trigger[0] == 'W') {
		n, err := strconv.ParseInt(trigger[1:], 10, 64)
		if err != nil || n < 1 {
			return Fault{}, fmt.Errorf("faults: bad write ordinal in %q", item)
		}
		f.AfterWrites = n
	} else {
		n, err := parseBytes(trigger)
		if err != nil {
			return Fault{}, fmt.Errorf("faults: bad byte trigger in %q: %v", item, err)
		}
		f.AfterBytes = n
	}
	if hasArg {
		arg = strings.TrimSpace(arg)
		switch f.Kind {
		case Stall:
			d, err := time.ParseDuration(arg)
			if err != nil || d <= 0 {
				return Fault{}, fmt.Errorf("faults: bad stall duration in %q", item)
			}
			f.Stall = d
		case Corrupt:
			low := strings.ToLower(arg)
			if !strings.HasPrefix(low, "bit") {
				return Fault{}, fmt.Errorf("faults: corrupt arg in %q wants 'bit<n>'", item)
			}
			n, err := strconv.ParseInt(arg[3:], 10, 64)
			if err != nil || n < 0 {
				return Fault{}, fmt.Errorf("faults: bad bit index in %q", item)
			}
			f.Bit = n
		default:
			return Fault{}, fmt.Errorf("faults: %s fault in %q takes no argument", f.Kind, item)
		}
	}
	return f, nil
}

// parseBytes reads a byte count with an optional binary-unit suffix.
func parseBytes(s string) (int64, error) {
	unit := int64(1)
	low := strings.ToLower(s)
	switch {
	case strings.HasSuffix(low, "mb"):
		unit, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(low, "kb"):
		unit, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(low, "b"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	n := v * float64(unit)
	if n < 0 || n > math.MaxInt64/2 || n != math.Trunc(n) {
		return 0, fmt.Errorf("byte count %q is negative, huge or fractional", s)
	}
	return int64(n), nil
}

// FormatFaultPlan renders p in the canonical text form: faults in
// declared order, then the seed (omitted when zero). ParseFaultPlan
// reads the result back to an identical Plan when p has no Refuse
// windows, which have no text form.
func FormatFaultPlan(p Plan) string {
	var items []string
	for _, f := range p.Faults {
		var b strings.Builder
		b.WriteString(f.Kind.String())
		b.WriteByte('@')
		if f.AfterWrites > 0 {
			fmt.Fprintf(&b, "w%d", f.AfterWrites)
		} else {
			b.WriteString(formatBytes(f.AfterBytes))
		}
		switch {
		case f.Kind == Stall:
			b.WriteByte(':')
			b.WriteString(f.Stall.String())
		case f.Kind == Corrupt && f.Bit >= 0:
			fmt.Fprintf(&b, ":bit%d", f.Bit)
		}
		items = append(items, b.String())
	}
	if p.Seed != 0 {
		items = append(items, fmt.Sprintf("seed=%d", p.Seed))
	}
	return strings.Join(items, ",")
}

// formatBytes renders n with a binary-unit suffix when it divides
// evenly, plain bytes otherwise.
func formatBytes(n int64) string {
	switch {
	case n > 0 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n > 0 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return strconv.FormatInt(n, 10)
	}
}
