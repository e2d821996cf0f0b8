package fanout

import (
	"errors"
	"fmt"
	"testing"
)

func TestForEachSemantics(t *testing.T) {
	// Indices are covered exactly once under any width.
	for _, width := range []int{1, 4, 16} {
		hits := make([]int, 37)
		if err := ForEach(width, len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("width %d: index %d ran %d times", width, i, n)
			}
		}
	}
	// An error from any index surfaces.
	sentinel := errors.New("boom")
	if err := ForEach(4, 9, func(i int) error {
		if i == 5 {
			return sentinel
		}
		return nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("ForEach swallowed the error: %v", err)
	}
	// Under any width the lowest-indexed failure wins, and a panic there
	// is re-raised on the caller rather than a later index's error.
	for _, width := range []int{1, 3, 8} {
		err := ForEach(width, 20, func(i int) error {
			if i%7 == 3 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Fatalf("width %d: surfaced %v, want index 3", width, err)
		}
		func() {
			defer func() {
				if r := recover(); r != "index 2" {
					t.Fatalf("width %d: recovered %v, want the panic at index 2", width, r)
				}
			}()
			_ = ForEach(width, 20, func(i int) error {
				switch {
				case i == 2:
					panic("index 2")
				case i > 2:
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
		}()
	}
}
