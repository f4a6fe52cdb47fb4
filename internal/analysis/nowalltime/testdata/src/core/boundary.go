package core

import "rtnet" // want `deterministic package core imports wall-clock package rtnet`

// dial names the wall-clock transport from engine code: the import
// above is the finding.
func dial() { rtnet.Dial() }
