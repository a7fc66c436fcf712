package logp

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestParamsValidateAccepts(t *testing.T) {
	ok := []Params{
		{P: 1, L: 2, O: 1, G: 2},
		{P: 16, L: 32, O: 2, G: 4},
		{P: 1024, L: 100, O: 5, G: 5},
		{P: 2, L: 8, O: 8, G: 8},
	}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", p, err)
		}
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []struct {
		p    Params
		want string
	}{
		{Params{P: 0, L: 8, O: 1, G: 2}, "processor"},
		{Params{P: 2, L: 8, O: 0, G: 2}, "overhead"},
		{Params{P: 2, L: 8, O: 1, G: 1}, "G >= 2"},
		{Params{P: 2, L: 8, O: 4, G: 3}, "G >= o"},
		{Params{P: 2, L: 4, O: 1, G: 8}, "G <= L"},
	}
	for _, c := range bad {
		err := c.p.Validate()
		if err == nil {
			t.Errorf("%v: expected error", c.p)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %q does not mention %q", c.p, err, c.want)
		}
	}
}

// TestParamsValidateRejectsHugeP checks the int32 bound on P without
// building a machine: Validate and NewMachine must refuse before any
// per-processor state exists.
func TestParamsValidateRejectsHugeP(t *testing.T) {
	huge := int64(math.MaxInt32) + 1
	p := Params{P: int(huge), L: 8, O: 1, G: 2}
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Validate(P = %d) = %v, want an error naming the bound", huge, err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exceeds") {
			t.Errorf("NewMachine(P = %d) recovered %v, want the Validate panic", huge, r)
		}
	}()
	NewMachine(p)
}

func TestCapacity(t *testing.T) {
	cases := []struct {
		l, g, want int64
	}{
		{8, 2, 4},
		{8, 3, 3},
		{8, 8, 1},
		{9, 2, 5},
		{100, 7, 15},
	}
	for _, c := range cases {
		p := Params{P: 2, L: c.l, O: 1, G: c.g}
		if got := p.Capacity(); got != c.want {
			t.Errorf("Capacity(L=%d,G=%d) = %d, want %d", c.l, c.g, got, c.want)
		}
	}
}

func TestCapacityPropertyCeil(t *testing.T) {
	check := func(lRaw, gRaw uint8) bool {
		g := int64(gRaw%30) + 2
		l := g + int64(lRaw%100)
		p := Params{P: 2, L: l, O: 1, G: g}
		c := p.Capacity()
		// c is the least integer with c*g >= l.
		return c*g >= l && (c-1)*g < l
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamsString(t *testing.T) {
	s := Params{P: 4, L: 16, O: 2, G: 4}.String()
	for _, want := range []string{"p=4", "L=16", "o=2", "G=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if DeliverMaxLatency.String() != "max-latency" ||
		DeliverMinLatency.String() != "min-latency" ||
		DeliverRandom.String() != "random" {
		t.Error("policy String() values wrong")
	}
	if !strings.Contains(DeliveryPolicy(99).String(), "99") {
		t.Error("unknown policy String() should include the value")
	}
}
