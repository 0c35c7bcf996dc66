package sim

import "testing"

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "mb")
	var got []int
	e.SpawnProcess("recv", func(p *Process) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Receive(p))
		}
	})
	e.SpawnProcess("send", func(p *Process) {
		for i := 1; i <= 3; i++ {
			p.Delay(5)
			mb.Put(i * 10)
		}
	})
	e.Run()
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 15 {
		t.Fatalf("final time = %d, want 15", e.Now())
	}
}

func TestMailboxPutAfter(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[string](e, "mb")
	var at Time
	e.SpawnProcess("recv", func(p *Process) {
		mb.Receive(p)
		at = p.Now()
	})
	mb.PutAfter(42, "hello")
	e.Run()
	if at != 42 {
		t.Fatalf("received at %d, want 42", at)
	}
}

func TestMailboxTryReceive(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "mb")
	if _, ok := mb.TryReceive(); ok {
		t.Fatal("TryReceive on empty mailbox succeeded")
	}
	mb.Put(7)
	if v, ok := mb.TryReceive(); !ok || v != 7 {
		t.Fatalf("TryReceive = %d,%v", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatal("mailbox not empty")
	}
}

func TestMailboxReceiveMatch(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "mb")
	var got []int
	e.SpawnProcess("recv", func(p *Process) {
		got = append(got, mb.ReceiveMatch(p, func(v int) bool { return v%2 == 0 }))
		got = append(got, mb.Receive(p)) // the skipped odd message, still queued
	})
	e.SpawnProcess("send", func(p *Process) {
		mb.Put(1) // does not match; must stay queued in order
		p.Delay(3)
		mb.Put(2)
	})
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("got %v, want [2 1]", got)
	}
}

func TestMailboxMultipleReceiversFCFSByWaitOrder(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "mb")
	var got []string
	for _, name := range []string{"r1", "r2"} {
		name := name
		e.SpawnProcess(name, func(p *Process) {
			v := mb.Receive(p)
			got = append(got, name+":"+string(rune('0'+v)))
		})
	}
	e.SpawnProcess("send", func(p *Process) {
		p.Delay(1)
		mb.Put(1)
		p.Delay(1)
		mb.Put(2)
	})
	e.Run()
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0] != "r1:1" || got[1] != "r2:2" {
		t.Fatalf("got %v, want [r1:1 r2:2]", got)
	}
}
