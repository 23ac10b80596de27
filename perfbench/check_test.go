package main

import (
	"strings"
	"testing"

	"repro/internal/repl"
)

// dumpOnly is a repl.System whose replica 0 holds fixed table contents.
type dumpOnly map[string]map[int64]string

func (d dumpOnly) BeginRead() (repl.Txn, error)   { return nil, nil }
func (d dumpOnly) BeginUpdate() (repl.Txn, error) { return nil, nil }
func (d dumpOnly) Sync()                          {}
func (d dumpOnly) Replicas() int                  { return 1 }
func (d dumpOnly) TableDump(_ int, table string) (map[int64]string, error) {
	return d[table], nil
}

func TestCheckWrites(t *testing.T) {
	sys := dumpOnly{"t": {
		0: "t-row-0", // never written
		1: "w1b",     // last of two committed writes
		2: "t-row-2", // only an unknown-outcome write: it did not land
		3: "w3",      // committed write landed beside an unknown one
	}}
	written := []write{
		{table: "t", row: 1, value: "w1a"},
		{table: "t", row: 1, value: "w1b"},
		{table: "t", row: 2, value: "w2", unknown: true},
		{table: "t", row: 3, value: "w3"},
		{table: "t", row: 3, value: "w3x", unknown: true},
	}
	if err := checkWrites(sys, []string{"t"}, written); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}

	for _, c := range []struct {
		name string
		row  int64
		v    string
		want string
	}{
		{"lost committed write", 1, "t-row-1", "not the value of any committed write"},
		{"value nobody wrote", 0, "bogus", "no transaction wrote it"},
		{"foreign value on a written row", 3, "bogus", "not the value of any committed write"},
	} {
		bad := dumpOnly{"t": map[int64]string{}}
		for k, v := range sys["t"] {
			bad["t"][k] = v
		}
		bad["t"][c.row] = c.v
		err := checkWrites(bad, []string{"t"}, written)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}

	missing := dumpOnly{"t": {0: "t-row-0", 2: "t-row-2", 3: "w3"}}
	if err := checkWrites(missing, []string{"t"}, written); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing row: got %v", err)
	}
}
