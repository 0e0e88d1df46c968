// Package typeerror does not compile. ioalint must refuse to lint it:
// exit code 2, with the compiler's file:line on stderr.
package typeerror

var n int = "not an int"
