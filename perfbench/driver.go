package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/workload"
)

// workers is the generator's concurrency: at most this many
// transactions, and connections, are in flight at once.
const workers = 2

// maxRetries bounds the certification-abort retries of one logical
// transaction; a transaction still aborting after that many counts as
// failed.
const maxRetries = 100

// txn is one generated logical transaction: the rows it reads and the
// rows and values it writes, all on its template's table.
type txn struct {
	update bool
	table  string
	reads  []int64
	writes []int64
	values []string
}

// userBytes is the payload the transaction asks to store.
func (t txn) userBytes() int {
	n := 0
	for _, v := range t.values {
		n += len(v)
	}
	return n
}

// stream generates a workload's transactions from a seeded generator,
// drawing templates at the mix's read/update fractions exactly as
// repl.Drive does.
type stream struct {
	cat    workload.Catalog
	mix    workload.Mix
	factor int
}

func newStream(sp spec) (stream, error) {
	mix := sp.workloadMix()
	cat, err := workload.CatalogFor(mix)
	return stream{cat: cat, mix: mix, factor: sp.factor}, err
}

// rows is the number of rows repl.LoadCatalog loads into table.
func (s stream) rows(table string) int {
	return max(s.cat.Tables[table]/s.factor, 10)
}

func (s stream) next(rng *stats.Rand) txn {
	tpl := s.cat.Pick(s.mix, rng)
	rows := s.rows(tpl.Table)
	t := txn{update: !tpl.ReadOnly, table: tpl.Table}
	for i := 0; i < tpl.ReadRows; i++ {
		t.reads = append(t.reads, int64(rng.Intn(rows)))
	}
	for i := 0; i < tpl.Writes; i++ {
		t.writes = append(t.writes, int64(rng.Intn(rows)))
		t.values = append(t.values, fmt.Sprintf("%s-%d", tpl.Name, rng.Uint64()))
	}
	return t
}

// Span kinds. A transaction span is the parent of the call spans made
// on its behalf.
const (
	spanReadTxn = iota
	spanUpdateTxn
	spanBegin
	spanRead
	spanWrite
	spanCommit
	spanAbort
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn.read", "txn.update", "begin", "read", "write", "commit", "abort"}

// span is one timed call into the client library, or one whole
// transaction. Times are nanoseconds since epoch.
type span struct {
	kind       uint8
	update     bool   // commit span of an update transaction
	cross      bool   // commit span of an update writing to several shard groups
	parent     int64  // transaction sequence number (its own for a txn span)
	trace      uint64 // server-assigned trace id (client.Txn.Trace), 0 if none
	start, end int64
}

// epoch is the origin of every span's times, and txnSeq numbers the
// traced transactions.
var (
	epoch  = time.Now()
	txnSeq atomic.Int64
)

// recorder keeps one worker's spans in memory; a nil recorder records
// nothing, which is how untraced runs time only whole transactions.
type recorder struct {
	spans []span
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(epoch))
}

func (r *recorder) add(kind uint8, parent int64, start int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{kind: kind, parent: parent, start: start, end: r.now()})
}

// tracer is implemented by client transactions: the server-assigned
// trace id groups the spans of one transaction.
type tracer interface{ Trace() uint64 }

// runner executes transactions against a system, classifying writes by
// shard group when the system is a router.
type runner struct {
	sys    repl.System
	locate func(table string, row int64) int // nil when unsharded
}

// crosses reports whether t writes rows owned by more than one group.
func (r runner) crosses(t txn) bool {
	if r.locate == nil || len(t.writes) < 2 {
		return false
	}
	g := r.locate(t.table, t.writes[0])
	for _, row := range t.writes[1:] {
		if r.locate(t.table, row) != g {
			return true
		}
	}
	return false
}

// run executes t until it commits, retrying certification aborts. It
// returns the number of aborts retried and the final error (nil on
// commit).
func (r runner) run(t txn, rec *recorder) (aborts int32, err error) {
	var parent int64
	var t0 int64
	if rec != nil {
		parent = txnSeq.Add(1)
		t0 = rec.now()
	}
	var trace uint64
	defer func() {
		if rec != nil {
			kind := uint8(spanReadTxn)
			if t.update {
				kind = spanUpdateTxn
			}
			rec.spans = append(rec.spans, span{kind: kind, parent: parent, trace: trace, start: t0, end: rec.now()})
		}
	}()
	for ; aborts <= maxRetries; aborts++ {
		s := rec.now()
		var tx repl.Txn
		if t.update {
			tx, err = r.sys.BeginUpdate()
		} else {
			tx, err = r.sys.BeginRead()
		}
		rec.add(spanBegin, parent, s)
		if err != nil {
			return aborts, err
		}
		if tr, ok := tx.(tracer); ok {
			trace = tr.Trace()
		}
		err = r.body(t, tx, rec, parent)
		if errors.Is(err, repl.ErrAborted) {
			continue
		}
		if err != nil {
			return aborts, err
		}
		s = rec.now()
		err = tx.Commit()
		if rec != nil {
			rec.spans = append(rec.spans, span{kind: spanCommit, update: t.update, cross: r.crosses(t), parent: parent, start: s, end: rec.now()})
		}
		if !errors.Is(err, repl.ErrAborted) {
			return aborts, err
		}
	}
	return aborts, fmt.Errorf("transaction still aborting after %d retries", maxRetries)
}

// body issues the transaction's reads and writes; on any error the
// transaction is aborted and the error returned.
func (r runner) body(t txn, tx repl.Txn, rec *recorder, parent int64) error {
	fail := func(err error) error {
		s := rec.now()
		tx.Abort()
		rec.add(spanAbort, parent, s)
		return err
	}
	for _, row := range t.reads {
		s := rec.now()
		_, _, err := tx.Read(t.table, row)
		rec.add(spanRead, parent, s)
		if err != nil {
			return fail(err)
		}
	}
	for i, row := range t.writes {
		s := rec.now()
		err := tx.Write(t.table, row, t.values[i])
		rec.add(spanWrite, parent, s)
		if err != nil {
			return fail(err)
		}
	}
	return nil
}

// phase is the raw outcome of one timed load phase.
type phase struct {
	samples   []sample
	elapsed   time.Duration
	attempted int
	failed    int     // errors, unknown outcomes and transactions left unfinished
	late      []int64 // open loop: dispatch lateness of each transaction, ns
	spans     []span
	written   []write // committed (and possibly committed) writes, for the final-state check
	userByte  int64   // payload bytes of committed writes
	firstErr  error
}

// write is one row value a transaction committed, or may have
// committed (unknown outcome).
type write struct {
	table   string
	row     int64
	value   string
	unknown bool
}

// workerOut is what one worker of either loop records.
type workerOut struct {
	samples   []sample
	late      []int64
	written   []write
	bytes     int64
	failed    int
	unstarted int // open loop: due transactions the phase ended before starting
	err       error
	rec       *recorder
}

func (w *workerOut) record(t txn, lat int64, aborts int32, err error) {
	s := sample{update: t.update, ok: err == nil, latency: lat, aborts: aborts}
	w.samples = append(w.samples, s)
	if err != nil {
		w.failed++
		if w.err == nil {
			w.err = err
		}
		if !unknownOutcome(err) {
			return
		}
	}
	for i, row := range t.writes {
		w.written = append(w.written, write{t.table, row, t.values[i], err != nil})
	}
	if err == nil {
		w.bytes += int64(t.userBytes())
	}
}

// unknownOutcome reports a commit that may have landed although no
// acknowledgement arrived.
func unknownOutcome(err error) bool {
	var uo *repl.UnknownOutcomeError
	var ru *router.UnknownOutcomeError
	return errors.As(err, &uo) || errors.As(err, &ru)
}

func merge(outs []*workerOut, elapsed time.Duration) phase {
	p := phase{elapsed: elapsed}
	for _, o := range outs {
		p.samples = append(p.samples, o.samples...)
		p.late = append(p.late, o.late...)
		p.written = append(p.written, o.written...)
		p.userByte += o.bytes
		p.attempted += len(o.samples) + o.unstarted
		p.failed += o.failed + o.unstarted
		if p.firstErr == nil {
			p.firstErr = o.err
		}
		if o.rec != nil {
			p.spans = append(p.spans, o.rec.spans...)
		}
	}
	return p
}

// closedLoop runs workers zero-think clients for d: each starts its
// next transaction as soon as the previous one finished. Transactions
// in flight at the deadline finish and count.
func closedLoop(r runner, st stream, seed uint64, d time.Duration, traced bool) phase {
	root := stats.NewRand(seed)
	outs := make([]*workerOut, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range outs {
		o := &workerOut{}
		if traced {
			o.rec = &recorder{}
		}
		outs[i] = o
		rng := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t := st.next(rng)
				t0 := time.Now()
				aborts, err := r.run(t, o.rec)
				o.record(t, int64(time.Since(t0)), aborts, err)
			}
		}()
	}
	wg.Wait()
	return merge(outs, time.Since(start))
}

// drainGrace bounds how long an open-loop phase may run past its last
// due time before the transactions not yet started count as failed.
const drainGrace = 5 * time.Second

// openLoop plays a seeded Poisson arrival schedule at rate
// transactions per second for d. Transactions are dispatched to the
// first free worker at or after their due time, and timed from the due
// time, so a stall shows in the latency of everything queued behind it.
func openLoop(r runner, st stream, seed uint64, rate float64, d time.Duration, traced bool) phase {
	rng := stats.NewRand(seed)
	var due []time.Duration
	var txns []txn
	for at := time.Duration(0); ; {
		at += time.Duration(rng.Exp(1/rate) * float64(time.Second))
		if at >= d {
			break
		}
		due = append(due, at)
		txns = append(txns, st.next(rng))
	}
	var next atomic.Int64
	outs := make([]*workerOut, workers)
	start := time.Now()
	cutoff := start.Add(d + drainGrace)
	var wg sync.WaitGroup
	for i := range outs {
		o := &workerOut{}
		if traced {
			o.rec = &recorder{}
		}
		outs[i] = o
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(txns) {
					return
				}
				at := start.Add(due[k])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				if now.After(cutoff) {
					o.unstarted++
					continue
				}
				o.late = append(o.late, int64(now.Sub(at)))
				aborts, err := r.run(txns[k], o.rec)
				o.record(txns[k], int64(time.Since(at)), aborts, err)
			}
		}()
	}
	wg.Wait()
	return merge(outs, d)
}
