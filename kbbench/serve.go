package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"deepdive"
)

const (
	// serveSetups is how many times the serve workload sets up its KB:
	// the median is setup_s, and the last KB serves the measured phase.
	serveSetups = 5
	// writeEvery paces the in-process writer: one held-out document per
	// interval, submitted on schedule whatever the readers do.
	writeEvery = 500 * time.Millisecond
	// bulkEvery makes every bulkEvery-th read a bulk read (9:1 mix).
	bulkEvery = 10
	// sliceLen is the traced/untraced alternation of a traced run.
	sliceLen = time.Second
	// maxUncaptured is the largest share of wire reads that may report
	// an epoch whose snapshot was not captured, and so go unchecked.
	maxUncaptured = 0.01
)

// runServe serves the KB of base+FE1+S1 on loopback while one closed
// loop reader issues point and bulk reads, one SSE subscriber follows
// the bulk-read relation, and an in-process writer submits held-out
// documents at a fixed rate. cpu_s is the process CPU time of the
// measured phase per 1000 wire reads: the server's, the writer's and
// the reader's, checks included. Every wire read must equal the
// in-process snapshot of the epoch it reports, the subscriber's
// reconstruction must equal the final bulk read, every write must be
// acknowledged, and the final state must hold the candidates of a KB
// built from scratch over the same documents.
func runServe(ctx context.Context, b *bench) error {
	in := b.in
	src := in.program("FE1", "S1")
	baseDocs := docRange(0, in.baseDocs())
	base := in.tuplesOf(baseDocs)
	opts := options(b.seed)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var setups []float64
	var kb *deepdive.KB
	var srv *deepdive.KBServer
	b.tr.on.Store(b.traced)
	for i := 0; i < serveSetups; i++ {
		if err := stopServing(srv, kb); err != nil {
			return err
		}
		t0 := time.Now()
		var err error
		kb, err = build(ctx, b.tr, "setup", src, base, opts)
		if err == nil {
			err = materialize(ctx, b.tr, "setup", kb)
		}
		if err == nil {
			err = b.tr.call("Serve", "setup", func() (err error) {
				srv, err = kb.Serve(ctx, deepdive.ServeOptions{Addr: "127.0.0.1:0"})
				return err
			})
		}
		b.ops.note("setup", err)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = median(setups)

	ph, err := newServePhase(ctx, b, kb, "http://"+srv.Addr())
	if err != nil {
		_ = stopServing(srv, kb) // the phase's error is the one to report
		return err
	}
	acked, updates := ph.run(ctx)
	if err := stopServing(srv, kb); err != nil {
		return err
	}
	ph.stop()
	b.tr.on.Store(false)
	served := factsOf(kb.Snapshot(), in.varRels)
	b.check("serve final marginals", marginalsValid(served))
	b.e2e["peak_rss_mb"] = b.peakRSS()
	b.e2e["f1"] = in.f1(served)

	// The reference: a KB grounded from scratch over the base plus every
	// acknowledged document.
	ref, err := build(ctx, b.tr, "reference", src, in.tuplesOf(append(append([]int(nil), baseDocs...), acked...)), opts)
	b.ops.note("reference", err)
	if err != nil {
		return fmt.Errorf("reference KB: %w", err)
	}
	want := factsOf(ref.Snapshot(), in.varRels)
	b.check("serve candidates", candidateSets(served, want))
	b.check("serve f1", f1Close(in.f1(served), in.f1(want)))
	if err := ref.Close(); err != nil {
		return fmt.Errorf("close reference KB: %w", err)
	}

	b.setupLayers()
	b.layer["queue.update_p50_ms"] = median(updates) * 1000
	return nil
}

// stopServing shuts a server down and closes its KB (no-op for nil).
func stopServing(srv *deepdive.KBServer, kb *deepdive.KB) error {
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	if kb != nil {
		return kb.Close()
	}
	return nil
}

// servePhase is the measured phase of the serve workload.
type servePhase struct {
	b       *bench
	kb      *deepdive.KB
	base    string
	bulkRel string
	points  []pointKey
	reader  *http.Client

	cap *capture
	sub *subscriber
}

type pointKey struct {
	rel   string
	tuple []string
	url   string
}

func newServePhase(ctx context.Context, b *bench, kb *deepdive.KB, base string) (*servePhase, error) {
	ph := &servePhase{
		b: b, kb: kb, base: base,
		reader: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	snap := kb.Snapshot()
	most := -1
	for _, rel := range b.in.varRels {
		facts := snap.Facts(rel)
		if len(facts) > most {
			ph.bulkRel, most = rel, len(facts)
		}
		for _, f := range facts {
			q := url.Values{"relation": {rel}, "tuple": f.Tuple}
			ph.points = append(ph.points, pointKey{rel, f.Tuple, base + "/v1/marginal?" + q.Encode()})
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(ph.points), func(i, j int) { ph.points[i], ph.points[j] = ph.points[j], ph.points[i] })
	ph.cap = startCapture(kb)
	ph.sub = startSubscriber(ctx, b, base, ph.bulkRel, ph.cap)
	select {
	case <-ph.sub.ready:
	case <-time.After(30 * time.Second):
		ph.stop()
		return nil, errors.New("subscriber received no snapshot event")
	}
	return ph, nil
}

// stop ends the subscriber and the capture and waits for both.
func (ph *servePhase) stop() {
	ph.sub.stop()
	ph.cap.stop()
	ph.reader.CloseIdleConnections()
}

// run drives the reader and the writer for the run's seconds, then
// checks the subscriber against the final bulk read and that the wire
// reads were checked. It returns the acknowledged documents and their
// Submit-to-published seconds.
func (ph *servePhase) run(ctx context.Context) ([]int, []float64) {
	b := ph.b
	cpu := startCPU()
	start := time.Now()
	end := start.Add(b.seconds)
	var acked []int
	var updates []float64
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		acked, updates = ph.write(ctx, start, end)
	}()

	// Round trips in seconds by [traced][bulk], and the read seconds of
	// untraced and traced slices.
	var lat [2][2][]float64
	var sliceSeconds [2]float64
	var bulkBytes int
	sliceStart, traced := start, b.traced
	b.tr.on.Store(traced)
	for i := 0; ; i++ {
		now := time.Now()
		if b.traced && now.Sub(sliceStart) >= sliceLen {
			sliceSeconds[boolIdx(traced)] += now.Sub(sliceStart).Seconds()
			sliceStart, traced = now, !traced
			b.tr.on.Store(traced)
		}
		if !now.Before(end) {
			sliceSeconds[boolIdx(traced)] += now.Sub(sliceStart).Seconds()
			break
		}
		isBulk := i%bulkEvery == bulkEvery-1
		d, n, err := ph.read(uint64(i+1), isBulk, ph.points[i%len(ph.points)])
		if isBulk {
			b.ops.note("bulk_read", err)
			bulkBytes += n
		} else {
			b.ops.note("point_read", err)
		}
		if err != nil {
			b.check("serve read", err)
			continue
		}
		lat[boolIdx(traced)][boolIdx(isBulk)] = append(lat[boolIdx(traced)][boolIdx(isBulk)], d)
	}
	b.tr.on.Store(false)
	<-wrote
	cpuS := cpu.seconds()

	point := append(append([]float64(nil), lat[0][0]...), lat[1][0]...)
	bulk := append(append([]float64(nil), lat[0][1]...), lat[1][1]...)
	reads := len(point) + len(bulk)
	readsPerS := float64(reads) / time.Since(start).Seconds()
	b.e2e["cpu_s"] = cpuS / float64(max(reads, 1)) * 1000
	verified, uncaptured := ph.cap.counts()
	fmt.Printf("serve reads=%d reads_per_s=%.1f cpu_s=%.3f point_p50_ms=%.4f bulk_p50_ms=%.4f verified=%d uncaptured=%d writes=%d\n",
		reads, readsPerS, b.e2e["cpu_s"], median(point)*1000, median(bulk)*1000, verified, uncaptured, len(acked))

	b.check("serve wire reads", readsChecked(verified, uncaptured))
	ph.checkSubscriber()

	l := b.layer
	l["serve.reads_per_s"] = readsPerS
	if b.traced {
		point, bulk = lat[1][0], lat[1][1]
		untraced, traced := len(lat[0][0])+len(lat[0][1]), len(point)+len(bulk)
		if untraced > 0 && traced > 0 {
			l["run.trace_overhead_pct"] = traceOverhead([]float64{sliceSeconds[1] / float64(traced)}, []float64{sliceSeconds[0] / float64(untraced)})
		}
	}
	l["serve.point_p50_ms"] = median(point) * 1000
	l["serve.point_p99_ms"] = quantile(point, 0.99) * 1000
	l["serve.point_n"] = float64(len(point))
	l["serve.bulk_p50_ms"] = median(bulk) * 1000
	l["serve.bulk_p99_ms"] = quantile(bulk, 0.99) * 1000
	l["serve.bulk_n"] = float64(len(bulk))
	if n := len(lat[0][1]) + len(lat[1][1]); n > 0 {
		l["serve.bulk_kb"] = float64(bulkBytes) / float64(n) / 1024
	}
	l["serve.fanout_p50_ms"] = median(ph.sub.fanouts()) * 1000
	l["serve.sse_events"] = float64(ph.sub.eventCount())
	l["queue.batches"] = float64(ph.kb.Updates().Stats().Batches)
	return acked, updates
}

func boolIdx(v bool) int {
	if v {
		return 1
	}
	return 0
}

// read issues one wire read, returns its round trip in seconds and the
// body size, and checks the response against the in-process snapshot of
// the epoch it reports. While tracing it also times the same read on the
// in-process snapshot.
func (ph *servePhase) read(id uint64, isBulk bool, key pointKey) (float64, int, error) {
	r, d, n, err := ph.fetch(id, isBulk, key)
	if err != nil {
		return 0, 0, err
	}
	if ph.b.tr.on.Load() {
		ph.timeInProcess(r)
	}
	ph.verify(r)
	return d, n, nil
}

// verify checks r against the in-process snapshot of the epoch it
// reports. A read at an epoch that was not captured goes unchecked and
// is counted; readsChecked bounds how many may.
func (ph *servePhase) verify(r *wireRead) {
	if s := ph.cap.at(ph.kb, r.epoch); s != nil {
		ph.b.check("serve wire read", wireMatches(r, s))
	}
}

// fetch makes one wire read, a point read of key or a bulk read of the
// bulk-read relation, and decodes the response.
func (ph *servePhase) fetch(id uint64, isBulk bool, key pointKey) (*wireRead, float64, int, error) {
	name, u := "GET /v1/marginal", key.url
	r := &wireRead{relation: key.rel, tuple: key.tuple, bulk: isBulk}
	if isBulk {
		name, u = "GET /v1/facts", ph.base+"/v1/facts?relation="+url.QueryEscape(ph.bulkRel)
		r.relation = ph.bulkRel
	}
	sp := ph.b.tr.begin(name, "reader", id, -1)
	t := time.Now()
	resp, err := ph.reader.Get(u)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t).Seconds()
	ph.b.tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := decodeRead(resp.StatusCode, body, r); err != nil {
		return nil, 0, 0, err
	}
	return r, d, len(body), nil
}

// timeInProcess times the read r made on the current in-process
// snapshot: point reads as the mean of 16 lookups, bulk reads once.
func (ph *servePhase) timeInProcess(r *wireRead) {
	sp := ph.b.tr.begin("Snapshot read", "reader", 0, -1)
	defer ph.b.tr.end(sp)
	s := ph.kb.Snapshot()
	if r.bulk {
		t := time.Now()
		s.Facts(r.relation)
		ph.b.tr.sample("snapshot.bulk_us", float64(time.Since(t).Nanoseconds())/1e3)
		return
	}
	const n = 16
	tuple := deepdive.Tuple(r.tuple)
	t := time.Now()
	for i := 0; i < n; i++ {
		s.Marginal(r.relation, tuple)
	}
	ph.b.tr.sample("snapshot.point_ns", float64(time.Since(t).Nanoseconds())/n)
}

// decodeRead parses a read response into r.
func decodeRead(status int, body []byte, r *wireRead) error {
	if r.bulk {
		if status != http.StatusOK {
			return fmt.Errorf("bulk read: status %d: %s", status, body)
		}
		var resp struct {
			Epoch uint64 `json:"epoch"`
			Facts []struct {
				Tuple       []string `json:"tuple"`
				Probability float64  `json:"probability"`
				Known       bool     `json:"known"`
				Evidence    bool     `json:"evidence"`
			} `json:"facts"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("bulk read: %w", err)
		}
		r.epoch = resp.Epoch
		r.facts = make([]deepdive.Fact, len(resp.Facts))
		for i, f := range resp.Facts {
			r.facts[i] = deepdive.Fact{Tuple: f.Tuple, Probability: f.Probability, Known: f.Known, Evidence: f.Evidence}
		}
		return nil
	}
	if status != http.StatusOK && status != http.StatusNotFound {
		return fmt.Errorf("point read: status %d: %s", status, body)
	}
	var resp struct {
		Epoch       uint64  `json:"epoch"`
		Probability float64 `json:"probability"`
		Known       bool    `json:"known"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("point read: %w", err)
	}
	r.epoch, r.prob, r.known = resp.Epoch, resp.Probability, resp.Known
	return nil
}

// write submits one held-out document every writeEvery from start until
// end while a second goroutine waits for the tickets in submission order
// (the order they resolve in). It returns the acknowledged documents,
// and their Submit-to-published seconds.
func (ph *servePhase) write(ctx context.Context, start, end time.Time) ([]int, []float64) {
	b := ph.b
	q := ph.kb.Updates()
	type sent struct {
		doc  int
		t    *deepdive.Ticket
		at   time.Time
		span int
	}
	order := b.in.heldOrder(b.seed)
	pending := make(chan sent, len(order)) // one slot per possible submit
	var acked []int
	var lats []float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastEpoch uint64
		for s := range pending {
			res, err := s.t.Wait(ctx)
			lat := time.Since(s.at)
			b.tr.end(s.span)
			b.ops.note("submit", err)
			if err != nil {
				b.check("serve write", fmt.Errorf("document %d: %w", s.doc, err))
				continue
			}
			if res.Epoch < lastEpoch {
				b.check("serve write", fmt.Errorf("epoch %d published after %d", res.Epoch, lastEpoch))
			}
			lastEpoch = res.Epoch
			lats = append(lats, lat.Seconds())
			b.tr.sample("queue.wait_p50_ms", ms(lat-res.GroundTime-res.LearnTime-res.InferTime))
			b.sampleBatch(res)
			acked = append(acked, s.doc)
		}
	}()
	for i, d := range order {
		due := start.Add(time.Duration(i) * writeEvery)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		sp := b.tr.begin("Submit→Wait", "writer", uint64(d)+1, -1)
		at := time.Now()
		pending <- sent{d, q.Submit(b.in.docUpdate(d)), at, sp}
	}
	close(pending)
	<-done
	return acked, lats
}

// checkSubscriber waits until the subscriber's reconstruction of the
// bulk-read relation equals the final bulk read.
func (ph *servePhase) checkSubscriber() {
	r, _, _, err := ph.fetch(0, true, pointKey{})
	if err != nil {
		ph.b.check("serve final read", err)
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := sameFacts(r.relation, sortedFacts(ph.sub.state(), r.facts), r.facts)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			ph.b.check("serve subscriber", err)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// capture records every publication it observes through KB.Published:
// the time it fired, by epoch, for the subscriber's fan-out latency.
type capture struct {
	mu     sync.Mutex
	pubAt  map[uint64]time.Time
	snaps  map[uint64]*deepdive.Snapshot
	found  int // reads whose epoch's snapshot was at hand
	missed int // reads whose epoch's snapshot was not
	done   chan struct{}
	exited chan struct{}
}

// captureKeep bounds how many recent snapshots capture holds for read
// verification: a read is checked as soon as it returns, so only the
// newest epochs are ever asked for.
const captureKeep = 4

func startCapture(kb *deepdive.KB) *capture {
	c := &capture{
		pubAt:  map[uint64]time.Time{},
		snaps:  map[uint64]*deepdive.Snapshot{},
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go func() {
		defer close(c.exited)
		for {
			ch := kb.Published()
			c.keep(kb.Snapshot(), time.Now())
			select {
			case <-ch:
			case <-c.done:
				return
			}
		}
	}()
	return c
}

func (c *capture) keep(s *deepdive.Snapshot, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := s.Epoch()
	if _, ok := c.snaps[e]; ok {
		return
	}
	c.snaps[e] = s
	if _, ok := c.pubAt[e]; !ok {
		c.pubAt[e] = at
	}
	delete(c.snaps, e-captureKeep)
}

// at returns the snapshot of epoch e: captured, or the KB's current one
// when it is that epoch (the capture goroutine may not have woken yet).
// An epoch neither holds is counted as uncaptured and returns nil.
func (c *capture) at(kb *deepdive.KB, e uint64) *deepdive.Snapshot {
	c.mu.Lock()
	s := c.snaps[e]
	c.mu.Unlock()
	if s == nil {
		if cur := kb.Snapshot(); cur.Epoch() == e {
			s = cur
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s == nil {
		c.missed++
	} else {
		c.found++
	}
	return s
}

func (c *capture) published(e uint64) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.pubAt[e]
	return t, ok
}

// counts returns how many reads at returned a snapshot and how many it
// could not.
func (c *capture) counts() (found, missed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found, c.missed
}

// readsChecked checks that wire reads were verified at all and that at
// most maxUncaptured of them reported an epoch that was not captured: a
// server that answered with wrong epoch numbers would leave its reads
// unchecked.
func readsChecked(verified, uncaptured int) error {
	n := verified + uncaptured
	if verified == 0 || float64(uncaptured) > maxUncaptured*float64(n) {
		return fmt.Errorf("%d of %d wire reads reported an epoch that was not captured", uncaptured, n)
	}
	return nil
}

func (c *capture) stop() {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	<-c.exited
}

// subscriber follows one relation over /v1/subscribe and rebuilds it
// from the snapshot event and the deltas.
type subscriber struct {
	b      *bench
	cap    *capture
	ready  chan struct{}
	cancel context.CancelFunc
	exited chan struct{}

	mu      sync.Mutex
	facts   map[string]deepdive.Fact
	events  int
	fanout  []float64
	sawSnap bool
}

func startSubscriber(ctx context.Context, b *bench, base, rel string, c *capture) *subscriber {
	ctx, cancel := context.WithCancel(ctx)
	s := &subscriber{b: b, cap: c, ready: make(chan struct{}), cancel: cancel, exited: make(chan struct{}), facts: map[string]deepdive.Fact{}}
	go func() {
		defer close(s.exited)
		client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
		defer client.CloseIdleConnections()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?relation="+url.QueryEscape(rel), nil)
		if err != nil {
			b.check("serve subscribe", err)
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			b.check("serve subscribe", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.check("serve subscribe", fmt.Errorf("status %d", resp.StatusCode))
			return
		}
		s.consume(ctx, resp.Body, rel)
	}()
	return s
}

// consume reads the event stream until it ends or ctx is cancelled.
func (s *subscriber) consume(ctx context.Context, body io.Reader, rel string) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			at := time.Now()
			err := s.apply(event, []byte(strings.TrimPrefix(line, "data: ")), rel, at)
			s.b.ops.note("sse_event", err)
			if err != nil {
				s.b.check("serve subscriber event", err)
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		s.b.check("serve subscriber stream", err)
	}
}

// apply folds one event into the reconstruction.
func (s *subscriber) apply(event string, data []byte, rel string, at time.Time) error {
	switch event {
	case "snapshot":
		var ev struct {
			Epoch uint64                     `json:"epoch"`
			Facts map[string][]deepdive.Fact `json:"facts"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("snapshot event: %w", err)
		}
		s.mu.Lock()
		s.facts = map[string]deepdive.Fact{}
		for _, f := range ev.Facts[rel] {
			s.facts[factKey(f.Tuple)] = f
		}
		s.events++
		first := !s.sawSnap
		s.sawSnap = true
		s.mu.Unlock()
		if first {
			close(s.ready)
		}
	case "delta":
		var ev struct {
			Epoch   uint64 `json:"epoch"`
			Changes []struct {
				Relation    string   `json:"relation"`
				Tuple       []string `json:"tuple"`
				Probability float64  `json:"probability"`
				Known       bool     `json:"known"`
				Evidence    bool     `json:"evidence"`
				Removed     bool     `json:"removed"`
			} `json:"changes"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("delta event: %w", err)
		}
		pub, ok := s.cap.published(ev.Epoch)
		s.mu.Lock()
		for _, c := range ev.Changes {
			if c.Relation != rel {
				continue
			}
			k := factKey(c.Tuple)
			if c.Removed {
				delete(s.facts, k)
				continue
			}
			s.facts[k] = deepdive.Fact{Tuple: c.Tuple, Probability: c.Probability, Known: c.Known, Evidence: c.Evidence}
		}
		s.events++
		if ok {
			s.fanout = append(s.fanout, at.Sub(pub).Seconds())
		}
		s.mu.Unlock()
	}
	return nil
}

// state returns a copy of the reconstructed relation.
func (s *subscriber) state() map[string]deepdive.Fact {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]deepdive.Fact, len(s.facts))
	for k, f := range s.facts {
		out[k] = f
	}
	return out
}

func (s *subscriber) fanouts() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.fanout...)
}

func (s *subscriber) eventCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

func (s *subscriber) stop() {
	s.cancel()
	<-s.exited
}
