package simmpi

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/trace"
)

// TestReadyListVisitsBounded pins the ready-list engine's cost: a rank is
// visited once per wake-up (initial queueing included), and a visit makes at
// most one step attempt that does not process an event, so the attempts
// never exceed events plus wake-ups. Wake-ups in turn come only from the initial queueing,
// sends and collective completions. A sweep over every live rank would break
// the bound on the chain and ring fixtures, whose ranks mostly wait on one
// neighbor.
func TestReadyListVisitsBounded(t *testing.T) {
	params := mpisim.DefaultParams()
	for _, fx := range fixtures {
		for _, n := range []int{7, 64, 256} {
			t.Run(fmt.Sprintf("%s/n%d", fx.name, n), func(t *testing.T) {
				seqs := fx.gen(n, 12)
				srcs := make([]EventSource, n)
				var events, sends, groups int64
				for i := range seqs {
					srcs[i] = &sliceSource{evs: seqs[i]}
					events += int64(len(seqs[i]))
					for _, e := range seqs[i] {
						switch {
						case e.Op == trace.OpSend || e.Op == trace.OpIsend:
							sends++
						case i == 0 && (e.Op.IsCollective() || e.Op == trace.OpFinalize):
							groups++
						}
					}
				}
				en := newEngine(srcs, params)
				if err := en.run(); err != nil {
					t.Fatal(err)
				}
				if max := int64(n) + sends + int64(n)*groups; en.wakes > max {
					t.Errorf("%d wake-ups exceed ranks + sends + ranks × collectives = %d", en.wakes, max)
				}
				if en.attempts > events+en.wakes {
					t.Errorf("%d step attempts for %d events and %d wake-ups", en.attempts, events, en.wakes)
				}
				want, err := Simulate(seqs, params)
				if err != nil {
					t.Fatal(err)
				}
				if got := en.result(); !reflect.DeepEqual(got, want) {
					t.Errorf("engine result %v differs from Simulate's %v", got.TotalNS, want.TotalNS)
				}
			})
		}
	}
}

// TestMatchKeyPacking pins the packed (source, tag) match key: distinct
// pairs never collide across negative tags and the int32 extremes, tags of
// either sign match their own sends, and a tag outside int32 is an error
// naming the rank, op, GID and tag instead of a silent key collision.
func TestMatchKeyPacking(t *testing.T) {
	srcs := []int{0, 1, 2, 1023, math.MaxInt32}
	tags := []int{0, 1, -1, -2, 7, math.MaxInt32, math.MinInt32}
	seen := map[uint64][2]int{}
	for _, s := range srcs {
		for _, tag := range tags {
			k := matchKey(s, tag)
			if prev, dup := seen[k]; dup {
				t.Fatalf("matchKey(%d, %d) = matchKey(%d, %d) = %#x", s, tag, prev[0], prev[1], k)
			}
			seen[k] = [2]int{s, tag}
		}
	}

	for _, tag := range []int{-1, -7, math.MinInt32, math.MaxInt32} {
		pair := [][]trace.Event{
			{{Op: trace.OpSend, Peer: 1, Tag: tag, Size: 64}},
			{{Op: trace.OpRecv, Peer: 0, Tag: 0, Size: 64}, {Op: trace.OpRecv, Peer: 0, Tag: tag, Size: 64}},
		}
		pair[0] = append(pair[0], trace.Event{Op: trace.OpSend, Peer: 1, Tag: 0, Size: 64})
		if _, err := Simulate(pair, mpisim.DefaultParams()); err != nil {
			t.Errorf("tag %d: %v", tag, err)
		}
	}

	for _, tag := range []int{math.MaxInt32 + 1, 1 << 40, math.MinInt32 - 1} {
		for _, op := range []trace.Op{trace.OpSend, trace.OpIsend, trace.OpRecv, trace.OpIrecv} {
			seqs := [][]trace.Event{
				{{Op: op, Peer: 1, Tag: tag, Size: 8, GID: 9}},
				{{Op: trace.OpBarrier, Peer: trace.NoPeer}},
			}
			_, err := Simulate(seqs, mpisim.DefaultParams())
			want := fmt.Sprintf("rank 0 %v at gid 9 with tag %d outside int32", op, tag)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("got error %v, want one containing %q", err, want)
			}
		}
	}
}
