// Package buildtags holds one file the go command builds on every
// platform and two it leaves out: ignored.go, excluded by its
// //go:build ignore line, and buildtags_windows.go, excluded by its
// file name everywhere but Windows. Neither of the two type-checks, so
// a loader that skips build constraints fails on this package.
package buildtags

// Answer is the package's one valid declaration.
const Answer = 42
