package tensor

// SIMDOn and AVX512On expose the kernel tier switches to the external
// tests, which log the tier that ran and force AVX-512 off.
var SIMDOn, AVX512On = &simdOn, &avx512On

// PanelClasses exposes a table pair's panel classes, so the move tests can
// show their tables draw every class.
func PanelClasses(t PatchTables) (off, pos []uint8) { return t.off.cls, t.pos.cls }
