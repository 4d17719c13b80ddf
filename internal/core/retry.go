package core

import (
	"math/rand"
	"time"
)

// restart runs start until it succeeds or 15s have passed, returning
// the final attempt's error. The engine's restart paths (restartJoiner,
// CrashRouter) go through it, because a service start can race a
// partition or broker outage, and giving up on the first failed declare
// would turn a transient fault into a permanently missing member.
// Attempts back off exponentially from 10ms to 1s, each delay drawn
// uniformly from [backoff/2, backoff) like wire.Client's reconnect
// jitter, so members restarting after a shared outage spread their
// declare storm instead of thundering in lockstep.
func restart(start func() error) error {
	deadline := time.Now().Add(15 * time.Second)
	backoff := 10 * time.Millisecond
	for {
		err := start()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
		backoff = min(2*backoff, time.Second)
	}
}
