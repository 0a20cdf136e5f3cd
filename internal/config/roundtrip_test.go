package config

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// instanceFiles returns every example instance shipped with the
// repository.
func instanceFiles(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "instances", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example instances found")
	}
	return paths
}

// Instance -> canonical JSON -> Instance must be lossless, and the
// canonical form must be a fixed point of Marshal — the property the
// scheduling service relies on to echo instances back in job results.
func TestInstanceRoundTrip(t *testing.T) {
	for _, path := range instanceFiles(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			inst, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}

			canonical, err := Marshal(inst)
			if err != nil {
				t.Fatal(err)
			}
			if len(canonical) == 0 || canonical[len(canonical)-1] != '\n' {
				t.Error("canonical form lacks trailing newline")
			}

			inst2, err := Parse(bytes.NewReader(canonical))
			if err != nil {
				t.Fatalf("canonical form does not parse: %v", err)
			}
			if !reflect.DeepEqual(inst, inst2) {
				t.Errorf("round trip changed the instance:\nbefore: %+v\nafter:  %+v", inst, inst2)
			}

			canonical2, err := Marshal(inst2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonical, canonical2) {
				t.Errorf("Marshal is not a fixed point:\nfirst:\n%s\nsecond:\n%s", canonical, canonical2)
			}

			// Both sides must build identical model objects.
			sys1, batch1, d1, err := Build(inst)
			if err != nil {
				t.Fatal(err)
			}
			sys2, batch2, d2, err := Build(inst2)
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 {
				t.Errorf("deadline changed: %v vs %v", d1, d2)
			}
			if !reflect.DeepEqual(sys1, sys2) {
				t.Error("system model changed across the round trip")
			}
			if !reflect.DeepEqual(batch1, batch2) {
				t.Error("batch model changed across the round trip")
			}
		})
	}
}
