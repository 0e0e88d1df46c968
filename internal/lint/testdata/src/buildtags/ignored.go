//go:build ignore

package buildtags

// Answer is declared twice and misused: go build never sees this file.
var Answer string = 42
