package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/certifier"
	"repro/internal/paxos"
	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// Replay probes feed the workload's seeded transaction stream into one
// layer's public API in process, so each layer's cost is measured
// without the network or the other layers around it.
const (
	replayTxns   = 4000 // transactions generated for the probes
	replaySyncs  = 200  // WAL appends that are each fsynced
	replayRounds = 1000 // Paxos rounds
)

// replayResult holds the replay metrics by name.
type replayResult map[string]metric

// writesetOf builds the writeset a transaction commits. A row written
// twice keeps its last value.
func writesetOf(t txn) writeset.Writeset {
	idx := map[int64]int{}
	var es []writeset.Entry
	for i, row := range t.writes {
		e := writeset.Entry{Key: writeset.Key{Table: t.table, Row: row}, Value: t.values[i]}
		if j, ok := idx[row]; ok {
			es[j] = e
			continue
		}
		idx[row] = len(es)
		es = append(es, e)
	}
	return writeset.New(es)
}

// loadedValue is the value repl.LoadCatalog stores in a row.
func loadedValue(table string, row int64) string {
	return fmt.Sprintf("%s-row-%d", table, row)
}

// loadDB builds an in-memory engine holding the workload's catalog,
// the same rows the servers load.
func loadDB(st stream) (*sidb.DB, error) {
	db := sidb.New()
	for name := range st.cat.Tables {
		if err := db.CreateTable(name); err != nil {
			return nil, err
		}
		table := name
		if err := db.BulkLoad(name, st.rows(name), func(r int64) string { return loadedValue(table, r) }); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// replay runs every probe over replayTxns transactions of the stream;
// dir holds the probe's WAL, on the same filesystem as the servers'.
func replay(st stream, seed uint64, dir string) (replayResult, error) {
	rng := stats.NewRand(seed)
	txns := make([]txn, replayTxns)
	var updates []txn
	for i := range txns {
		txns[i] = st.next(rng)
		if txns[i].update {
			updates = append(updates, txns[i])
		}
	}
	out := replayResult{}
	for _, probe := range []func() error{
		func() error { return replaySIDB(st, txns, out) },
		func() error { return replayWire(txns, out) },
		func() error { return replayCertifier(updates, out) },
		func() error { return replayPaxos(updates, out) },
		func() error { return replayWAL(dir, updates, out) },
		func() error { return replayApply(st, updates, out) },
		func() error { return replayTwoPC(updates, out) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func replaySIDB(st stream, txns []txn, out replayResult) error {
	db, err := loadDB(st)
	if err != nil {
		return err
	}
	var readNs, commitNs time.Duration
	var reads, commits int
	for _, t := range txns {
		tx := db.Begin()
		for _, row := range t.reads {
			s := time.Now()
			_, _, err := tx.Read(t.table, row)
			readNs += time.Since(s)
			if err != nil {
				return err
			}
		}
		reads += len(t.reads)
		for i, row := range t.writes {
			if err := tx.Write(t.table, row, t.values[i]); err != nil {
				return err
			}
		}
		s := time.Now()
		_, _, err := tx.Commit()
		if t.update {
			commitNs += time.Since(s)
			commits++
		}
		if err != nil {
			return err
		}
	}
	out["sidb.read_ns"] = metric{float64(readNs) / float64(max(reads, 1)), "ns"}
	out["sidb.commit_ns"] = metric{float64(commitNs) / float64(max(commits, 1)), "ns"}
	return nil
}

// replayWire encodes and then decodes every frame one transaction puts
// on a connection, requests and replies, through wire.Conn over an
// in-memory buffer.
func replayWire(txns []txn, out replayResult) error {
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	var enc, dec time.Duration
	var nbytes int
	for _, t := range txns {
		buf.Reset()
		s := time.Now()
		frames := 0
		send := func(m wire.Message) error { frames++; return c.Send(m) }
		if err := send(&wire.Begin{ReadOnly: !t.update, Trace: 1}); err != nil {
			return err
		}
		send(&wire.BeginOK{Applied: 1, Trace: 1})
		for _, row := range t.reads {
			send(&wire.Read{Table: t.table, Row: row})
			send(&wire.ReadOK{OK: true, Value: loadedValue(t.table, row)})
		}
		for i, row := range t.writes {
			send(&wire.Write{Table: t.table, Row: row, Value: t.values[i]})
			send(&wire.WriteOK{})
		}
		send(&wire.Commit{})
		if err := send(&wire.CommitOK{Applied: 2}); err != nil {
			return err
		}
		enc += time.Since(s)
		nbytes += buf.Len()
		s = time.Now()
		for i := 0; i < frames; i++ {
			if _, err := c.Recv(); err != nil {
				return err
			}
		}
		dec += time.Since(s)
	}
	n := float64(len(txns))
	out["wire.encode_ns_per_txn"] = metric{float64(enc) / n, "ns"}
	out["wire.decode_ns_per_txn"] = metric{float64(dec) / n, "ns"}
	out["wire.bytes_per_txn"] = metric{float64(nbytes) / n, "B"}
	return nil
}

func replayCertifier(updates []txn, out replayResult) error {
	cert := certifier.New()
	var d time.Duration
	for _, t := range updates {
		ws := writesetOf(t)
		s := time.Now()
		o, err := cert.Certify(cert.Version(), ws)
		d += time.Since(s)
		if err != nil {
			return err
		}
		if !o.Committed {
			return fmt.Errorf("replay certify: conflict at a fresh snapshot")
		}
	}
	out["certifier.certify_ns"] = metric{float64(d) / float64(max(len(updates), 1)), "ns"}
	return nil
}

// replayPaxos runs rounds of a three-acceptor group over the in-process
// transport, each choosing a value the size of one of the stream's
// writesets.
func replayPaxos(updates []txn, out replayResult) error {
	tr := paxos.NewLocalTransport(paxos.NewAcceptor(0), paxos.NewAcceptor(1), paxos.NewAcceptor(2))
	p := paxos.NewProposer(0, []int{0, 1, 2}, tr)
	if _, _, err := p.Campaign(""); err != nil {
		return err
	}
	if len(updates) == 0 {
		return fmt.Errorf("replay paxos: the stream has no update transactions")
	}
	var d time.Duration
	for i := 0; i < replayRounds; i++ {
		t := updates[i%len(updates)]
		v := paxos.Value(bytes.Repeat([]byte{'w'}, wsBytes(t)))
		s := time.Now()
		_, err := p.Propose(v)
		d += time.Since(s)
		if err != nil {
			return err
		}
	}
	out["paxos.round_us"] = metric{us(int64(d)) / replayRounds, "us"}
	return nil
}

// wsBytes approximates a transaction's writeset size: keys plus values.
func wsBytes(t txn) int {
	n := 0
	for i := range t.writes {
		n += len(t.table) + 8 + len(t.values[i])
	}
	return n
}

// replayWAL appends every update's record to a fresh fsyncing WAL and
// syncs after each of the first replaySyncs appends.
func replayWAL(dir string, updates []txn, out replayResult) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	w, _, err := wal.Open(wal.Options{Dir: dir, Fsync: true})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer w.Close()
	var app, sync time.Duration
	syncs := 0
	for i, t := range updates {
		s := time.Now()
		seq, err := w.Append([]certifier.Record{{Version: int64(i + 1), Writeset: writesetOf(t)}})
		app += time.Since(s)
		if err != nil {
			return err
		}
		if i < replaySyncs {
			s = time.Now()
			err = w.Sync(seq)
			sync += time.Since(s)
			syncs++
			if err != nil {
				return err
			}
		}
	}
	out["wal.append_us"] = metric{us(int64(app)) / float64(max(len(updates), 1)), "us"}
	out["wal.sync_us"] = metric{us(int64(sync)) / float64(max(syncs, 1)), "us"}
	return nil
}

// replayApply installs every update's record on a loaded engine through
// the parallel applier, one record per call as propagation delivers
// them under light load.
func replayApply(st stream, updates []txn, out replayResult) error {
	db, err := loadDB(st)
	if err != nil {
		return err
	}
	a := pipeline.NewApplier(db, runtime.GOMAXPROCS(0))
	var d time.Duration
	for i, t := range updates {
		rec := []certifier.Record{{Version: int64(i + 1), Writeset: writesetOf(t)}}
		s := time.Now()
		n := a.Apply(rec)
		d += time.Since(s)
		if n != 1 {
			return fmt.Errorf("replay apply: record %d not applied", i+1)
		}
	}
	out["apply.record_ns"] = metric{float64(d) / float64(max(len(updates), 1)), "ns"}
	return nil
}

// replayTwoPC prepares and decides every update as one fragment of a
// cross-shard transaction at an in-memory certifier.
func replayTwoPC(updates []txn, out replayResult) error {
	cert := certifier.New()
	var prep, dec time.Duration
	for i, t := range updates {
		id := fmt.Sprintf("replay-%d", i)
		s := time.Now()
		vote, _, err := cert.Prepare(certifier.PreparedTxn{ID: id, Coord: 0, Snapshot: cert.Version(), Writeset: writesetOf(t)})
		prep += time.Since(s)
		if err != nil {
			return err
		}
		if !vote {
			return fmt.Errorf("replay prepare: no vote at a fresh snapshot")
		}
		s = time.Now()
		_, err = cert.Decide(id, true)
		dec += time.Since(s)
		if err != nil {
			return err
		}
		if err := cert.Forget(id); err != nil {
			return err
		}
	}
	n := float64(max(len(updates), 1))
	out["twopc.prepare_us"] = metric{us(int64(prep)) / n, "us"}
	out["twopc.decide_us"] = metric{us(int64(dec)) / n, "us"}
	return nil
}
