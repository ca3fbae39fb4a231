package lib

import "testing"

func TestOrphan(t *testing.T) {
	if Orphan() != 2 {
		t.Fatal("Orphan")
	}
}
