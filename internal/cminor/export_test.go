package cminor

// MaxNesting exposes the nesting budget to the external tests.
const MaxNesting = maxNesting
