// Fixture for the deadexport analyzer: a module whose exports are used by
// its own non-test files, by a second module that replaces it (user/, the
// way bench/ replaces repro), through an interface, or not at all.
package lib

// Unused has no caller outside a test.
func Unused() {} // want `lib.Unused is exported but has no use in a non-test file`

// UsedByReplacer is called only from the replacing module.
func UsedByReplacer() int { return 1 }

// Shape is what Total sums.
type Shape interface {
	Area() float64
}

// Total sums the shapes' areas through Shape.
func Total(shapes ...Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Square's Area is never called by name: Square satisfies Shape through it.
type Square float64

// Area implements Shape.
func (s Square) Area() float64 { return float64(s * s) }

// Allowed is a deliberate test-only export.
//
//lint:allow deadexport the exemption case of the fixture
func Allowed() {}
