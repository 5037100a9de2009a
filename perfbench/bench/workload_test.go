package bench

import (
	"errors"
	"reflect"
	"testing"

	"ibr"
)

func rangeReq(lo, hi uint64) ibr.Request { return ibr.Request{Op: ibr.OpRange, Key: lo, KeyHi: hi} }

func pairs(keys ...uint64) []ibr.Pair {
	var ps []ibr.Pair
	for _, k := range keys {
		ps = append(ps, ibr.Pair{Key: k, Val: ValueOf(k)})
	}
	return ps
}

func TestValidateRange(t *testing.T) {
	ok := ibr.StatusOK
	for _, c := range []struct {
		name  string
		pairs []ibr.Pair
		bad   bool
	}{
		{"ascending in bounds", pairs(10, 11, 15, 20), false},
		{"empty", nil, false},
		{"out of order", pairs(10, 15, 11), true},
		{"duplicate", pairs(10, 11, 11), true},
		{"below Key", pairs(9, 11), true},
		{"above KeyHi", pairs(12, 21), true},
		{"wrong value", []ibr.Pair{{Key: 12, Val: 12}}, true},
	} {
		err := Validate(rangeReq(10, 20), ibr.Response{Status: ok, Pairs: c.pairs})
		if (err != nil) != c.bad {
			t.Errorf("%s: Validate = %v, want bad=%v", c.name, err, c.bad)
		}
	}
	if err := Validate(rangeReq(10, 20), ibr.Response{Status: ibr.StatusUnsupported}); err == nil {
		t.Error("RANGE answered UNSUPPORTED must be rejected")
	}
}

func TestValidatePointOps(t *testing.T) {
	for _, c := range []struct {
		name string
		req  ibr.Request
		resp ibr.Response
		bad  bool
	}{
		{"GET hit", ibr.Request{Op: ibr.OpGet, Key: 7}, ibr.Response{Status: ibr.StatusOK, Val: 15}, false},
		{"GET wrong value", ibr.Request{Op: ibr.OpGet, Key: 7}, ibr.Response{Status: ibr.StatusOK, Val: 14}, true},
		{"GET miss", ibr.Request{Op: ibr.OpGet, Key: 7}, ibr.Response{Status: ibr.StatusNotFound}, false},
		{"GET exists", ibr.Request{Op: ibr.OpGet, Key: 7}, ibr.Response{Status: ibr.StatusExists}, true},
		{"PUT ok", ibr.Request{Op: ibr.OpPut, Key: 7, Val: 15}, ibr.Response{Status: ibr.StatusOK, Val: 15}, false},
		{"PUT exists", ibr.Request{Op: ibr.OpPut, Key: 7, Val: 15}, ibr.Response{Status: ibr.StatusExists}, false},
		{"PUT not found", ibr.Request{Op: ibr.OpPut, Key: 7, Val: 15}, ibr.Response{Status: ibr.StatusNotFound}, true},
		{"DEL ok", ibr.Request{Op: ibr.OpDel, Key: 7}, ibr.Response{Status: ibr.StatusOK}, false},
		{"DEL internal", ibr.Request{Op: ibr.OpDel, Key: 7}, ibr.Response{Status: ibr.StatusInternal}, true},
	} {
		err := Validate(c.req, c.resp)
		if (err != nil) != c.bad {
			t.Errorf("%s: Validate = %v, want bad=%v", c.name, err, c.bad)
		}
	}
	if err := Validate(ibr.Request{Op: ibr.OpGet, Key: 7}, ibr.Response{Status: ibr.StatusBusy}); !errors.Is(err, ErrBusy) {
		t.Errorf("BUSY: Validate = %v, want ErrBusy", err)
	}
}

func TestGenIsSeeded(t *testing.T) {
	w := &Workload{Keys: 1000, Get: 0.5, Put: 0.2, Del: 0.2, Range: 0.1, Span: 100, TTLMs: 5}
	draw := func(seed int64) []ibr.Request {
		g := NewGen(w, seed)
		var rs []ibr.Request
		for i := 0; i < 500; i++ {
			rs = append(rs, g.Next())
		}
		return rs
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	for _, r := range a {
		switch r.Op {
		case ibr.OpRange:
			if r.KeyHi-r.Key != w.Span-1 || r.KeyHi >= w.Keys {
				t.Fatalf("bad range %d..%d", r.Key, r.KeyHi)
			}
		case ibr.OpPut:
			if r.Val != ValueOf(r.Key) || r.TTL == 0 {
				t.Fatalf("bad put %+v", r)
			}
		}
		if r.Key >= w.Keys {
			t.Fatalf("key %d out of range", r.Key)
		}
	}
}
