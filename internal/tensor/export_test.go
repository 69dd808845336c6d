package tensor

// SIMDOn and AVX512On expose the kernel tier switches to the external
// tests, which log the tier that ran and force AVX-512 off.
var SIMDOn, AVX512On = &simdOn, &avx512On
