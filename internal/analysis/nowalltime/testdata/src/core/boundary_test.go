package core

import "rtnet"

// A test may drive the real transport: test files are exempt from the
// import check.
func dialInTest() { rtnet.Dial() }
