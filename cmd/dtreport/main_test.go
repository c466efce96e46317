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
		{in: " e1 ", want: map[string]bool{"E1": true}},
		{in: "E13,A6", want: map[string]bool{"E13": true, "A6": true}},
		{in: "E99", errWant: `unknown table ID "E99"`},
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
