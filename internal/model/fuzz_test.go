package model

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSystem hardens the system loader: arbitrary JSON must never
// panic, and every accepted system must validate, have a hyperperiod,
// re-serialize, and re-parse to an equally valid system.
func FuzzReadSystem(f *testing.F) {
	b := NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]NodeID{n0}, []int{8}, 1, 2)
	g := b.App("a").Graph("G", 100, 100)
	g.UniformProc("P", 10)
	sys := b.MustSystem()
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"arch":null,"apps":[]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ReadSystem(strings.NewReader(src))
		if err != nil {
			return
		}
		// Accepted implies valid (ReadSystem validates), so these must
		// not fail.
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted system fails validation: %v", err)
		}
		got.Hyperperiod()
		var out bytes.Buffer
		if err := got.WriteJSON(&out); err != nil {
			t.Fatalf("accepted system fails to serialize: %v", err)
		}
		if _, err := ReadSystem(&out); err != nil {
			t.Fatalf("serialized system fails to re-parse: %v", err)
		}
	})
}
