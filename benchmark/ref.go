package main

// The machine-speed reference. The box this benchmark runs on shares its
// memory system with other tenants: over minutes, allocation-heavy Go
// code (which is what every workload here is) runs up to 1.9x slower or
// faster, and ten runs of the same code spread by 15-28 % (CALIBRATION.md).
// So every run also times a fixed reference — a fresh child process doing
// a fixed amount of allocation- and pointer-heavy work that shares no code
// with the program under test — around every set-up and about once a
// second between ops, and reports its time-based end-to-end metrics scaled
// to the speed at which the reference takes refNominal: setup_s by the
// samples around the set-ups, the others by the samples of the stretch.
// The raw values are printed next to them.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

const (
	// refSpec is the childEnv value that makes a child run the reference
	// kernel instead of a diagnosis.
	refSpec = "reference-kernel"
	// refNominal is what the reference child takes on the 2-core box when
	// its neighbours are quiet; at that speed adjusted and raw values agree.
	refNominal = 0.115
	// refEvery spaces the reference samples of a closed loop.
	refEvery = time.Second
	// refBurst is how many samples are taken in a row where a workload
	// cannot be interrupted (before and after load's stretch).
	refBurst = 6
)

type refNode struct {
	key         string
	left, right *refNode
	payload     []int
}

// refKernel builds a binary search tree of string keys and indexes it in
// a map: small allocations, pointer chasing over a few MB, a few
// collections — the profile of trace collection and of phase 3.
func refKernel() int {
	var root *refNode
	x := uint64(88172645463325252)
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &refNode{key: strconv.FormatUint(x, 36), payload: make([]int, 4)}
		p := &root
		for *p != nil {
			if n.key < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = n
	}
	index := map[string]int{}
	var walk func(*refNode)
	walk = func(n *refNode) {
		if n == nil {
			return
		}
		walk(n.left)
		index[n.key] = len(index)
		walk(n.right)
	}
	walk(root)
	return len(index)
}

// refSampler times reference children and remembers how long they took.
type refSampler struct {
	self    string
	last    time.Time
	samples []float64
	spent   time.Duration // total time inside samples
	err     error         // the first failure; a run with one is not reported
}

func newRefSampler() (*refSampler, error) {
	self, err := os.Executable()
	return &refSampler{self: self}, err
}

// sample runs one reference child and waits for it to end.
func (r *refSampler) sample() {
	cmd := exec.Command(r.self)
	cmd.Env = append(os.Environ(), childEnv+"="+refSpec, fmt.Sprintf("GOMAXPROCS=%d", procs()))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("reference child: %w", err)
	}
	r.samples = append(r.samples, d.Seconds())
	r.spent += d
	r.last = time.Now()
}

// tick samples if the last sample is at least refEvery old.
func (r *refSampler) tick() {
	if time.Since(r.last) >= refEvery {
		r.sample()
	}
}

func (r *refSampler) burst() {
	// After a stretch inside this process its collector is still marking
	// on the other core, which the first sample would measure instead.
	runtime.GC()
	for i := 0; i < refBurst; i++ {
		r.sample()
	}
}

// speed is the factor that scales a time measured while the reference
// took samples to the nominal machine speed: below 1 when the machine
// was slow.
func speed(samples []float64) float64 { return ratio(refNominal, median(samples)) }
