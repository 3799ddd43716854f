package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fafnir/internal/telemetry"
)

// recorder keeps the traced run's spans in memory until the run ends. Spans
// are recorded by the benchmark around its own calls into each layer; the
// program under test is not instrumented. A nil *recorder records nothing,
// so untraced passes run the same code.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

// span is one timed call. pid is the workload, lane the calling goroutine,
// op the operation whose spans share it (-1 for set-up).
type span struct {
	name       string
	pid, lane  int
	op         int64
	id, parent uint64
	start, end time.Duration // since the recorder was made
}

// openSpan is a span whose call is still running.
type openSpan struct {
	r     *recorder
	s     span
	start time.Time
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a root span.
func (r *recorder) open(name string, pid, lane int, op int64) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	now := time.Now()
	return &openSpan{r: r, s: span{name: name, pid: pid, lane: lane, op: op, id: id, start: now.Sub(r.t0)}, start: now}
}

// child starts a span caused by o, on the same lane and op.
func (o *openSpan) child(name string) *openSpan {
	if o == nil {
		return nil
	}
	c := o.r.open(name, o.s.pid, o.s.lane, o.s.op)
	c.s.parent = o.s.id
	return c
}

// close ends the span and records it.
func (o *openSpan) close() {
	if o == nil {
		return
	}
	o.s.end = o.s.start + time.Since(o.start)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// durations returns the durations of pid's spans named name, in record order.
func (r *recorder) durations(pid int, name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ds []time.Duration
	for _, s := range r.spans {
		if s.pid == pid && s.name == name {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// chromeEvent is one complete ("X") trace event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace-event JSON, with process
// names naming the workloads. Events are sorted by lane and start time, so
// timestamps are monotonic within every lane.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.start < b.start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	first := true
	emit := func(v any) error {
		if !first {
			w.WriteString(",")
		}
		first = false
		return enc.Encode(v)
	}
	for _, wl := range workloads {
		meta := map[string]any{"name": "process_name", "ph": "M", "pid": wl.pid, "tid": 0, "args": map[string]any{"name": wl.name}}
		if err := emit(meta); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.name, Ph: "X", PID: s.pid, TID: s.lane,
			TS:  us(s.start),
			Dur: us(s.end - s.start),
			Args: map[string]any{
				telemetry.ArgSpan: s.id, telemetry.ArgParent: s.parent, "op": s.op,
			},
		}
		if err := emit(ev); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateTrace applies the check `fafnir-trace validate` makes to the
// written trace and returns its event count.
func validateTrace(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return telemetry.ValidateChrome(data)
}

// selfTimeTable renders, per workload, each span name's call count, total
// time and self time (its duration minus the part its children cover), with
// the self time's share of the workload's traced wall time. Self times of
// one workload sum to the total time of its root spans.
func (r *recorder) selfTimeTable() string {
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()

	covered := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	type row struct {
		name        string
		calls       int
		total, self time.Duration
	}
	var b strings.Builder
	for _, wl := range workloads {
		rows := map[string]*row{}
		var root time.Duration
		for _, s := range spans {
			if s.pid != wl.pid {
				continue
			}
			d := s.end - s.start
			if s.parent == 0 {
				root += d
			}
			rw := rows[s.name]
			if rw == nil {
				rw = &row{name: s.name}
				rows[s.name] = rw
			}
			rw.calls++
			rw.total += d
			rw.self += max(d-covered[s.id], 0)
		}
		if len(rows) == 0 {
			continue
		}
		list := make([]*row, 0, len(rows))
		for _, rw := range rows {
			list = append(list, rw)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
		fmt.Fprintf(&b, "\n%s: where the time goes (self time, traced run)\n\n", wl.name)
		b.WriteString("| span | calls | total ms | self ms | self share |\n|---|---:|---:|---:|---:|\n")
		for _, rw := range list {
			fmt.Fprintf(&b, "| %s | %d | %.1f | %.1f | %.1f%% |\n", rw.name, rw.calls, ms(rw.total), ms(rw.self),
				100*float64(rw.self)/float64(max(root, 1)))
		}
	}
	return b.String()
}
