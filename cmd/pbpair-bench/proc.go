package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a snapshot of the process's resource counters.
type procSample struct {
	at    time.Time
	cpu   time.Duration // user + system CPU, getrusage
	gcCPU float64       // runtime/metrics estimates, CPU seconds
	goCPU float64
	alloc uint64  // cumulative heap allocation, bytes
	rssMB float64 // peak resident set so far (ru_maxrss is KiB on Linux)
}

var procMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func sampleProc() procSample {
	ru := rusage()
	s := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return procSample{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU: s[0].Value.Float64(),
		goCPU: s[1].Value.Float64(),
		alloc: s[2].Value.Uint64(),
		rssMB: float64(ru.Maxrss) * 1024 / 1e6,
	}
}

// procUse is what the process consumed between two samples.
type procUse struct {
	wall, cpu time.Duration
	cpuUtil   float64 // CPU ÷ (wall × GOMAXPROCS)
	gcFrac    float64 // GC CPU ÷ Go-accounted CPU
	allocMBps float64
	peakMB    float64 // peak resident set of the process up to the end
}

func since(a procSample) procUse {
	b := sampleProc()
	wall := b.at.Sub(a.at)
	cpu := b.cpu - a.cpu
	return procUse{
		wall:      wall,
		cpu:       cpu,
		cpuUtil:   ratio(float64(cpu), float64(wall)*float64(runtime.GOMAXPROCS(0))),
		gcFrac:    ratio(b.gcCPU-a.gcCPU, b.goCPU-a.goCPU),
		allocMBps: ratio(float64(b.alloc-a.alloc)/1e6, wall.Seconds()),
		peakMB:    b.rssMB,
	}
}
