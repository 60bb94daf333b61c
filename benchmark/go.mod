// The benchmark is its own module so that it builds from its own
// directory and stays out of the parent module's `go build ./...` and
// `go test ./...`. Its path sits under chet/, which is what lets
// adapter.go import chet/internal/... packages.
module chet/benchmark

go 1.22

require chet v0.0.0

replace chet => ../
