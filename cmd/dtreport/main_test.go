package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	all := map[string]bool{}
	for _, id := range tableIDs {
		all[id] = true
	}
	cases := []struct {
		in      string
		want    map[string]bool
		errWant string // substring of the error; "" means no error
	}{
		{in: "all", want: all},
		// "all" is exactly E1-E5 and A6.
		{in: "ALL", want: map[string]bool{
			"E1": true, "E2": true, "E3": true, "E4": true, "E5": true, "A6": true,
		}},
		{in: " e1 ", want: map[string]bool{"E1": true}},
		{in: "E5,A6", want: map[string]bool{"E5": true, "A6": true}},
		{in: "E99", errWant: `unknown table ID "E99"`},
		// E6 is the benchmark's train.* metrics, the machine-model studies
		// E7-E10 were retired, E11-E13 are tier-1 tests now, and A1, A3,
		// A4 and A5 were retired.
		{in: "E6", errWant: `unknown table ID "E6"`},
		{in: "E7", errWant: `unknown table ID "E7"`},
		{in: "e8", errWant: `unknown table ID "e8"`},
		{in: "E9", errWant: `unknown table ID "E9"`},
		{in: "E1,E10", errWant: `unknown table ID "E10"`},
		{in: "E11", errWant: `unknown table ID "E11"`},
		{in: "E12", errWant: `unknown table ID "E12"`},
		{in: "e13", errWant: `unknown table ID "e13"`},
		{in: "A1", errWant: `unknown table ID "A1"`},
		{in: "A3", errWant: `unknown table ID "A3"`},
		{in: "A4", errWant: `unknown table ID "A4"`},
		{in: "E1,A5", errWant: `unknown table ID "A5"`},
		{in: "A2", errWant: "dl-walk and dl-jump columns of E1"},
	}
	for _, c := range cases {
		got, err := parseOnly(c.in)
		if c.errWant != "" {
			if err == nil || !strings.Contains(err.Error(), c.errWant) {
				t.Errorf("parseOnly(%q) error = %v, want one containing %q", c.in, err, c.errWant)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseOnly(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseOnly(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
