package htc

// DenseCases exports the packed-Dense geometries to the replay tests
// (package htc_test), which compile each one.
var DenseCases = denseCases
