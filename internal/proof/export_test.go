package proof

// ReferenceVerify exposes the pre-kernel loop to the external test
// package, whose battery needs the arbiter packages (which import this
// one).
var ReferenceVerify = referenceVerify
