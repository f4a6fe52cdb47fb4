// Package rtnet is a nowalltime fixture standing in for the exempt
// real-time transport: wall-clock calls here are by design.
package rtnet

import "time"

func wall() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}

// Dial blocks on the real clock.
func Dial() { time.Sleep(time.Millisecond) }
