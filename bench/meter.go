package main

import (
	"runtime"
	"syscall"
	"time"
)

// passStat is what one pass (every cell once, or one federation) measured.
type passStat struct {
	WallS      float64
	CPUS       float64
	Mallocs    uint64
	AllocBytes uint64
	Rounds     int
	// Attempted and Failed count operations; one operation is one selected
	// client-round.
	Attempted, Failed int
}

// meter measures wall time, process CPU and allocations of a timed section.
type meter struct {
	start time.Time
	cpu   float64
	ms    runtime.MemStats
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = processCPU()
	m.start = time.Now()
	return m
}

func (m *meter) stop() passStat {
	wall := time.Since(m.start).Seconds()
	cpu := processCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return passStat{
		WallS: wall, CPUS: cpu,
		Mallocs: ms.Mallocs - m.ms.Mallocs, AllocBytes: ms.TotalAlloc - m.ms.TotalAlloc,
	}
}
