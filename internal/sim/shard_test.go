package sim

import (
	"reflect"
	"strings"
	"testing"
)

// newSharded builds an engine with n chip shards beside the sys shard.
func newSharded(n int) *Engine {
	e := NewEngine()
	e.AddShards(n)
	return e
}

func TestAddShardsRefusesLiveEngine(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AddShards after scheduling should panic")
		}
	}()
	e.AddShards(1)
}

// TestSendTaggedArbitrationOrder pins the fixed-priority-arbiter
// semantics of the tag: cross-shard posts landing on one shard at the
// same virtual time execute untagged-first, then in ascending tag
// order, regardless of which shard sent them first.
func TestSendTaggedArbitrationOrder(t *testing.T) {
	e := newSharded(3)
	sys := e.Sys()
	var order []string
	arrive := func(label string) func() {
		return func() { order = append(order, label) }
	}
	// Each chip shard fires at t=5 and posts to sys for t=10. Tags are
	// deliberately anti-correlated with shard ids, and one post is
	// untagged: the untagged one must win, then tag order.
	e.Shard(1).At(5, func() { e.Shard(1).SendTagged(sys, 10, 2, arrive("tag2")) })
	e.Shard(2).At(5, func() { e.Shard(2).SendTagged(sys, 10, 0, arrive("tag0")) })
	e.Shard(3).At(5, func() { e.Shard(3).SendTagged(sys, 10, 1, arrive("tag1")) })
	e.Shard(3).At(5, func() { e.Shard(3).Send(sys, 10, arrive("untagged")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"untagged", "tag0", "tag1", "tag2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("arrival order %v, want %v", order, want)
	}
}

// TestSpawnOnRunsOnTargetShard checks that a proc spawned cross-shard
// executes in the target shard's context and joins its proc set.
func TestSpawnOnRunsOnTargetShard(t *testing.T) {
	e := newSharded(2)
	var ran int32 = -1
	e.At(0, func() {
		e.Sys().SpawnOn(e.Shard(2), 7, "kernel", func(p *Proc) {
			ran = p.Shard().id
			p.Wait(3)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("SpawnOn proc ran on shard %d, want 2", ran)
	}
}

// TestDeadlockNamesProcsAndShardMarks pins the multi-shard deadlock
// diagnostics: the error names every blocked proc with the condition it
// waits on, and reports each shard's low-water mark.
func TestDeadlockNamesProcsAndShardMarks(t *testing.T) {
	e := newSharded(2)
	stuck := NewCondOn(e.Shard(1), "never-signaled")
	e.Shard(1).Spawn("victim", func(p *Proc) {
		p.Wait(42 * Nanosecond)
		p.WaitCond(stuck)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error")
	}
	for _, frag := range []string{"victim@never-signaled", "low-water marks", "sys@t=", "chip0@t=42ns"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("deadlock error %q missing %q", err, frag)
		}
	}
}

// fuzzRun is one execution of the random cross-shard workload: every
// executed event in dispatch order, with the key its sender stamped.
type fuzzRun []fuzzExec

// fuzzExec is one executed event. made is how many events had been
// dispatched when it was created: it was pending at every dispatch
// index >= made.
type fuzzExec struct {
	shard, made int
	k           key
}

// fuzzEvent builds one event of the random cross-shard workload, keyed
// k: it logs its execution, then derives 1-2 children from its own seed
// (never from shared state, so the event population is independent of
// execution order) and posts them at random targets, times and tags,
// predicting the key each child will carry.
func fuzzEvent(e *Engine, log *fuzzRun, sh *Shard, k key, seed uint64, depth int) func() {
	made := len(*log)
	return func() {
		*log = append(*log, fuzzExec{sh.ID(), made, k})
		if depth == 0 {
			return
		}
		r := NewRand(seed)
		for i := 0; i < 1+r.Intn(2); i++ {
			target := e.Shard(r.Intn(e.NumShards()))
			t := sh.Now() + Time(r.Intn(50))
			child := seed*0x9E3779B97F4A7C15 + uint64(i) + 1
			ck := key{t: t, tag: untagged, sid: sh.id, seq: sh.seq}
			tagged := target != sh && r.Intn(2) == 0
			if tagged {
				ck.tag = int32(r.Intn(8))
			}
			next := fuzzEvent(e, log, target, ck, child, depth-1)
			switch {
			case target == sh:
				sh.At(t, next)
			case tagged:
				sh.SendTagged(target, t, int(ck.tag), next)
			default:
				sh.Send(target, t, next)
			}
		}
	}
}

// runFuzz executes the seeded random workload on e and returns its
// dispatch log.
func runFuzz(t *testing.T, e *Engine, seed uint64, depth int) fuzzRun {
	t.Helper()
	var log fuzzRun
	for i := 0; i < e.NumShards(); i++ {
		sh := e.Shard(i)
		k := key{t: Time(i), tag: untagged, sid: sh.id, seq: sh.seq}
		sh.At(Time(i), fuzzEvent(e, &log, sh, k, seed+uint64(i), depth))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestInterShardOrderFuzz is the ordering fuzz test for the sharded
// merge: seeded random workloads posting cross-shard events (tagged and
// untagged, at random delays) must run each shard in non-decreasing
// time, and every dispatch must pick the least key pending on any
// shard - the keys their senders stamped. The schedule must repeat
// exactly on a fresh engine and on the same engine after Reset.
func TestInterShardOrderFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		e := newSharded(4)
		base := runFuzz(t, e, seed, 6)
		if len(base) < 50 {
			t.Fatalf("seed %d generated only %d events; fuzz workload degenerate", seed, len(base))
		}
		now := make([]Time, e.NumShards())
		for i, x := range base {
			if x.k.t < now[x.shard] {
				t.Fatalf("seed %d: shard %d ran t=%v after t=%v", seed, x.shard, x.k.t, now[x.shard])
			}
			now[x.shard] = x.k.t
			for _, y := range base[i+1:] {
				if y.made <= i && y.k.less(x.k) {
					t.Fatalf("seed %d: dispatch %d ran key %+v while %+v (shard %d) was pending",
						seed, i, x.k, y.k, y.shard)
				}
			}
		}
		if again := runFuzz(t, newSharded(4), seed, 6); !reflect.DeepEqual(again, base) {
			t.Errorf("seed %d: a fresh engine ran a different schedule", seed)
		}
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		if again := runFuzz(t, e, seed, 6); !reflect.DeepEqual(again, base) {
			t.Errorf("seed %d: the engine ran a different schedule after Reset", seed)
		}
	}
}
