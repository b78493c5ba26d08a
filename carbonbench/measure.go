package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/carbonedge/carbonedge/internal/nn"
)

// epoch anchors every timestamp the benchmark takes: times are monotonic
// nanoseconds since process start.
var epoch = time.Now() //lint:allow nodeterm the benchmark measures wall time by design; nothing it times feeds a result

// now is the benchmark's clock. It allocates nothing, so the wrappers that
// sit on the engine's hot path may call it.
func now() int64 {
	return int64(time.Since(epoch)) //lint:allow nodeterm the benchmark measures wall time by design; nothing it times feeds a result
}

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanSlot spanKind = iota
	spanSelect
	spanUpdate
	spanDecide
	spanObserve
	spanFanout
	spanCollect
	spanTurnaround
	spanRunSlot
	spanLoadModel
	spanResume
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"slot", "bandit.select", "bandit.update", "trading.decide", "trading.observe",
	"deploy.region_fanout", "deploy.region_collect", "deploy.root_turnaround",
	"nn.run_slot", "nn.load_model", "deploy.resume",
}

// span is one timed interval. Spans of one slot share the slot number; the
// parent is the enclosing span's kind within the same slot and rep, and
// actor tells apart the edges or regions that record the same kind.
type span struct {
	kind, parent spanKind
	actor        int32
	rep          int32
	slot         int32
	start, end   int64
}

// spanLog is a fixed-capacity span store. Recording never allocates: a span
// claims the next index with an atomic increment, and a full log counts the
// overflow instead of growing.
type spanLog struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, capacity)} }

func (l *spanLog) add(s span) {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = s
}

// recorded returns the spans stored so far. Call it only after every
// recording goroutine has finished.
func (l *spanLog) recorded() []span {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// writeSpans writes every log, one span per line, when the run is over.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range logs {
		for _, s := range l.recorded() {
			fmt.Fprintf(w, `{"name":%q,"parent":%q,"actor":%d,"rep":%d,"slot":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				spanNames[s.kind], spanNames[s.parent], s.actor, s.rep, s.slot, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// intervalsMS turns a series of slot-start timestamps into the gaps between
// consecutive starts, in milliseconds.
func intervalsMS(starts []int64) []float64 {
	out := make([]float64, 0, len(starts))
	for t := 1; t < len(starts); t++ {
		out = append(out, float64(starts[t]-starts[t-1])/1e6)
	}
	return out
}

// memSnap is the part of the Go runtime's memory statistics the per-layer
// metrics use.
type memSnap struct {
	bytes, allocs uint64
	gcs           uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{bytes: ms.TotalAlloc, allocs: ms.Mallocs, gcs: ms.NumGC}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostFingerprint identifies the machine a result came from. Results taken
// under different fingerprints compare only informationally.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	Int8Tier   string `json:"int8_tier"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() hostFingerprint {
	fp := hostFingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if tiers := nn.QdotTiers(); len(tiers) > 0 {
		fp.Int8Tier = tiers[len(tiers)-1].Name // dispatch picks the last (fastest) tier
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

func (fp hostFingerprint) String() string {
	b, _ := json.Marshal(fp) // strings and ints always encode
	return string(b)
}

// countingConn counts the bytes crossing one end of a link, both ways.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// pipeListener hands out pre-created in-memory connections: Accept drains
// the queue, then blocks until Close. It stands in for a TCP listener so a
// fleet of thousands of edges needs no sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener(capacity int) *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, capacity), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.IPAddr{} }
