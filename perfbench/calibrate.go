package main

import (
	"math/rand"
	"sort"
	"time"
)

// referenceCalibration is calibrate's typical time, in seconds, on the host
// the bounds in BENCHMARK.json were set on: a 2-vCPU Intel Xeon, timed
// while another simulation runs on the other vCPU. Host-time metrics are
// scaled to that speed.
const referenceCalibration = 0.03

// calibrate times a fixed kernel on the calling goroutine and returns the
// seconds it took. The kernel sorts, fills a map and passes a token
// between two goroutines, the operations the simulator spends its time on,
// and uses no repository code, so a change to the program cannot move it.
// Shared hosts drift in speed by a quarter within a minute. A worker times
// the kernel just before each simulation it runs, under the same
// contention, so a simulation's time divided by its own calibration
// follows that drift far better than a run-wide average does.
func calibrate() float64 {
	const n = 1 << 17
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
	}
	sort.Ints(xs)
	m := map[int]int{}
	for i := 0; i < n/5; i++ {
		m[xs[i*5]] = i
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < n/10; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	return time.Since(t0).Seconds()
}
