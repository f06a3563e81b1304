package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts by
// tens of percent over minutes as neighbours load the memory system: on a
// 2-vCPU Xeon virtual machine, two sets of ten runs of unchanged code
// taken half an hour apart had medians up to 60% apart. A speedProbe
// measures that drift while a timed pass runs: between ops it has a helper
// process run a fixed allocation-heavy Go loop, and the pass's times are
// scaled by how fast the loop ran. On those two sets this brought the gap
// between medians under 8% (README.md).

// refProbeMs is the probe's lower-quartile time on that machine in a
// typical state; scaled times read as milliseconds there.
const refProbeMs = 9.0

// probeInterval is the least time between two probes.
const probeInterval = 100 * time.Millisecond

// speedProbe runs the probe in a helper process, so its heap and collector
// never touch the workload's.
type speedProbe struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	last    time.Time
	samples []float64 // probe durations, ms
}

// probeEnv makes the benchrun binary (or its test binary) serve probes on
// standard input and output instead of doing anything else.
const probeEnv = "BENCHRUN_SPEED_PROBE"

func startSpeedProbe() (*speedProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{cmd: exec.Command(self)}
	p.cmd.Env = append(os.Environ(), probeEnv+"=1")
	p.cmd.Stderr = os.Stderr
	if p.in, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.out = bufio.NewReader(stdout)
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// maybe runs one probe unless the last ran less than probeInterval ago.
func (p *speedProbe) maybe() error {
	if time.Since(p.last) < probeInterval {
		return nil
	}
	defer func() { p.last = time.Now() }()
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	p.samples = append(p.samples, float64(ns)/1e6)
	return nil
}

// scale converts this pass's times to the reference host's speed: the
// lower quartile of the probes, which passes over probes a neighbour's
// burst happened to hit, against refProbeMs.
func (p *speedProbe) scale() float64 {
	if p == nil || len(p.samples) == 0 {
		return 1
	}
	return refProbeMs / percentile(p.samples, 25)
}

// close stops the helper and waits for it.
func (p *speedProbe) close() {
	p.in.Close()
	p.cmd.Wait()
}

var probeSink []float64

// allocProbe is the probe: allocate, fill and drop 16 MB in 8 KB slices
// with 1.6 MB kept live, the allocator-, collector- and memory-bound kind
// of work the design runs do.
func allocProbe() time.Duration {
	t0 := time.Now()
	keep := make([][]float64, 0, 201)
	for i := 0; i < 2000; i++ {
		b := make([]float64, 1024)
		for j := range b {
			b[j] = float64(i * j)
		}
		keep = append(keep, b)
		if len(keep) > 200 {
			keep = keep[1:]
		}
	}
	probeSink = keep[0]
	return time.Since(t0)
}

// serveProbes answers each line on standard input with one probe's
// duration in nanoseconds. It collects the probe's garbage before
// answering, so none of its work overlaps the workload's.
func serveProbes() {
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		d := allocProbe()
		runtime.GC()
		fmt.Printf("%d\n", d.Nanoseconds())
	}
}
