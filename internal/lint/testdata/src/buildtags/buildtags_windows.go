package buildtags

// onWindows does not type-check: go build leaves this file out on
// every platform but Windows.
var onWindows int = "windows"
