package directory

import (
	"errors"
	"sync"
	"testing"
)

func TestUserCRUD(t *testing.T) {
	var s Store
	u := User{ID: "alice", Name: "Alice", Community: "iu", AudioCapable: true}
	if err := s.AddUser(u); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUser(u); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate add = %v", err)
	}
	got, err := s.User("alice")
	if err != nil || got.Name != "Alice" {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if _, err := s.User("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup missing = %v", err)
	}
	if err := s.AddUser(User{}); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestTerminalBindingAndActive(t *testing.T) {
	var s Store
	if err := s.AddUser(User{ID: "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := s.BindTerminal(Terminal{ID: "t1", UserID: "ghost"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bind to missing user = %v", err)
	}
	if err := s.BindTerminal(Terminal{ID: "t1", UserID: "bob", Kind: TerminalSIP, Address: "sip:bob@x", Active: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.BindTerminal(Terminal{ID: "t2", UserID: "bob", Kind: TerminalH323, Address: "h323:bob@y", Active: true}); err != nil {
		t.Fatal(err)
	}
	// Only one active terminal.
	t1, err := s.Terminal("t1")
	if err != nil || t1.Active {
		t.Fatalf("t1 should be inactive: %+v, %v", t1, err)
	}
	if t1.RegisteredAt.IsZero() {
		t.Fatal("RegisteredAt not stamped")
	}
	t2, err := s.Terminal("t2")
	if err != nil || !t2.Active {
		t.Fatalf("t2 should be active: %+v, %v", t2, err)
	}
	if _, err := s.Terminal("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup missing = %v", err)
	}
}

func TestCommunityCRUD(t *testing.T) {
	var s Store
	c := Community{Name: "admire", ControlEndpoint: "http://beihang/ws", MediaServers: []string{"udp://m1"}}
	if err := s.AddCommunity(c); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCommunity(c); !errors.Is(err, ErrExists) {
		t.Fatalf("dup = %v", err)
	}
	got, err := s.Community("admire")
	if err != nil || got.ControlEndpoint != "http://beihang/ws" {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if err := s.AddCommunity(Community{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Community("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup missing = %v", err)
	}
}

func TestListsSorted(t *testing.T) {
	var s Store
	for _, n := range []string{"z-comm", "a-comm", "m-comm"} {
		if err := s.AddCommunity(Community{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	comms := s.Communities()
	if comms[0].Name != "a-comm" || comms[2].Name != "z-comm" {
		t.Fatalf("communities = %v", comms)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	var s Store
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				id := string(rune('a'+g)) + string(rune('0'+i%10))
				_ = s.AddUser(User{ID: id})
				_, _ = s.User(id)
				_ = s.BindTerminal(Terminal{ID: "t-" + id, UserID: id, Active: true})
				_, _ = s.Terminal("t-" + id)
			}
		}()
	}
	wg.Wait()
}
