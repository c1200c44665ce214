package main

import (
	"math/rand"
	"slices"
	"strconv"
)

// The VM's vCPUs run at a speed that moves with the shared host's load,
// apart from any time the host steals outright: on the machine the
// bounds were set on, the same cold pass took from 1.15 s to 3.1 s of
// steal-free time within one hour, and its CPU time moved alike. Runs
// minutes apart would differ by more than any bound. So each run also
// times a fixed reference loop that uses none of flashmc's code, at
// points spread over the run, and scales every time metric by
// refSeconds over the run's median reference time: the figures are
// seconds at the reference speed. A change to flashmc cannot move the
// reference, so it shows in full. README.md gives the spreads with and
// without the scaling.

// refSeconds is the reference loop's steal-free time on the 2-vCPU
// Xeon VM the bounds were set on, near its fastest. It only sets the
// scale of the reported figures.
const refSeconds = 0.040

// refData is the reference loop's input, built once and never
// allocated into while timed, so the loop's time does not depend on
// the size of the heap around it.
type refData struct {
	keys, buf []string
	index     map[string]int
	root      *refNode
}

type refNode struct {
	key         string
	left, right *refNode
}

var ref = newRefData()

func newRefData() *refData {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	d := &refData{buf: make([]string, n), index: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		k := "fn_" + strconv.Itoa(rng.Intn(1_000_000)) + "_" + strconv.Itoa(i%97)
		d.keys = append(d.keys, k)
		d.index[k] = i
		p := &d.root
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &refNode{key: k}
	}
	return d
}

// refSink keeps the reference loop's result live.
var refSink int

// refWork is the reference loop: string sorting, map lookups and
// pointer chasing over a working set of about a megabyte, the mix of a
// compiler's front half.
func refWork() {
	sum := 0
	for round := 0; round < 8; round++ {
		copy(ref.buf, ref.keys)
		slices.Sort(ref.buf)
		for _, k := range ref.buf {
			sum += ref.index[k]
			for n := ref.root; n != nil && n.key != k; sum++ {
				if k < n.key {
					n = n.left
				} else {
					n = n.right
				}
			}
		}
	}
	refSink += sum
}

// speedProbe collects a run's reference timings.
type speedProbe struct{ samples []float64 }

// sample adds n samples. Each times the reference loop twice and keeps
// the faster steal-free time, so one interrupted loop does not count.
func (p *speedProbe) sample(n int) {
	for ; n > 0; n-- {
		best := 0.0
		for i := 0; i < 2; i++ {
			sw := startWatch()
			refWork()
			if _, ran := sw.elapsed(); i == 0 || ran < best {
				best = ran
			}
		}
		p.samples = append(p.samples, best)
	}
}

// factor is what a steal-free time of this run is multiplied by to
// give seconds at the reference speed.
func (p *speedProbe) factor() float64 {
	if len(p.samples) == 0 {
		fail("speed probe: no sample")
	}
	return refSeconds / median(p.samples)
}

func (p *speedProbe) log(workload string) {
	logf("%s: reference loop median %.4fs of %d, time factor %.3f", workload, median(p.samples), len(p.samples), p.factor())
}
