package transport

// The distributed lockstep runner: RunSync drives ONE sched.SyncProcess
// over a Transport while reproducing the delivery semantics of
// sched.SyncEngine exactly — frames sent in round r are delivered at
// Step(r+1), each round's inbox is stable-sorted by (From, Tag), and
// termination is checked at the top of each round. Because the
// processes are deterministic state machines, a cluster of RunSync
// nodes decides bit-for-bit the same values as the single-engine
// simulation of the same Spec (pinned by the facade's parity tests).
//
// Rounds are synchronized with end-of-round (EOR) control frames: after
// a node has sent every data frame destined for delivery round d it
// sends EOR(d) to all peers, carrying its Done flag at that point. A
// node enters Step(r) only after EOR(r) arrived from every peer, so no
// data frame for round r can still be in flight (links are ordered per
// peer). A peer can run at most one round ahead — its EOR(r+1) waits on
// our EOR(r) — so two buffers indexed by round parity hold everything a
// correct peer can send, and a frame two or more rounds ahead is an
// error. Stale frames (at-least-once TCP redelivery) are dropped and
// duplicate EOR frames are counted once.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"relaxedbvc/internal/sched"
)

// eorTag is the end-of-round barrier control frame; Data is one byte,
// the sender's Done flag after the round that produced the frames.
const eorTag = "\x00eor"

// SyncNodeStats reports one node's traffic through a RunSync run.
type SyncNodeStats struct {
	// Rounds is the number of lockstep rounds executed — equal on every
	// node of the cluster and to sched.SyncEngine.RoundsRun for the
	// same processes.
	Rounds int
	// Delivered counts protocol messages delivered to the local process.
	Delivered int
	// FramesSent counts data frames (not EOR barriers) sent.
	FramesSent int
}

// roundSlot buffers one delivery round: its data messages and each
// peer's EOR barrier state.
type roundSlot struct {
	msgs []sched.Message
	seen []bool // peer -> EOR arrived
	done []bool // peer -> Done flag of that EOR
	eors int    // distinct peers whose EOR arrived
}

func (s *roundSlot) reset() {
	s.msgs = s.msgs[:0]
	clear(s.seen)
	clear(s.done)
	s.eors = 0
}

// RunSync drives proc over t in lockstep until every node in the
// cluster reports Done or maxRounds (<=0 means the sched default 1<<16)
// elapse. traceFn, when non-nil, observes every delivered protocol
// message (the counterpart of sched.SyncEngine.TraceFn). The slice
// passed to Step is reused two rounds later; processes must not retain
// it.
func RunSync(ctx context.Context, t Transport, proc sched.SyncProcess, maxRounds int, traceFn func(sched.Message)) (*SyncNodeStats, error) {
	if maxRounds <= 0 {
		maxRounds = 1 << 16
	}
	self, n := t.Self(), t.N()
	stats := &SyncNodeStats{}

	sendOuts := func(outs []sched.Outgoing, deliverRound int) error {
		for _, o := range outs {
			if o.To == self {
				return fmt.Errorf("%w: node %d addressed itself", ErrBadPeer, self)
			}
			f := Frame{To: o.To, Round: deliverRound, Tag: o.Tag, Data: o.Data}
			if o.To == sched.Broadcast {
				f.To = Broadcast
				stats.FramesSent += n - 1
			} else {
				stats.FramesSent++
			}
			if err := t.Send(f); err != nil {
				return fmt.Errorf("node %d round %d send: %w", self, deliverRound, err)
			}
		}
		return nil
	}
	sendEOR := func(round int, done bool) error {
		flag := byte(0)
		if done {
			flag = 1
		}
		if err := t.Send(Frame{To: Broadcast, Round: round, Tag: eorTag, Data: []byte{flag}}); err != nil {
			return fmt.Errorf("node %d round %d barrier: %w", self, round, err)
		}
		return nil
	}

	// Two slots, indexed by round parity: the round being collected and
	// the one a peer may already be sending.
	var slots [2]roundSlot
	for i := range slots {
		slots[i].seen = make([]bool, n)
		slots[i].done = make([]bool, n)
	}
	// collect blocks until EOR(round) arrived from all n-1 peers, then
	// returns the round's sorted inbox and whether every peer is done.
	collect := func(round int) ([]sched.Message, bool, error) {
		cur := &slots[round&1]
		// The other slot held round-1, whose Step has returned; frames
		// for round+1 can only arrive from now on.
		slots[(round+1)&1].reset()
		for cur.eors < n-1 {
			f, err := t.Recv(ctx)
			if err != nil {
				return nil, false, fmt.Errorf("node %d round %d: %w", self, round, err)
			}
			control := len(f.Tag) > 0 && f.Tag[0] == 0
			if control && f.Tag != eorTag {
				continue // unknown control frame from a newer peer: ignore
			}
			if f.From < 0 || f.From >= n || f.From == self {
				return nil, false, fmt.Errorf("%w: node %d round %d: frame from peer %d", ErrBadPeer, self, round, f.From)
			}
			if f.Round < round {
				// A frame for an already-collected round can only be a
				// reconnect duplicate; the protocols tolerate (and the
				// sim's fault layer exercises) duplication, but dropping
				// it keeps the inbox bit-identical to the fault-free
				// simulation.
				continue
			}
			if f.Round > round+1 {
				return nil, false, fmt.Errorf("%w: node %d round %d: peer %d sent a frame for round %d, more than one round ahead",
					ErrTransport, self, round, f.From, f.Round)
			}
			s := &slots[f.Round&1]
			switch {
			case !control:
				s.msgs = append(s.msgs, sched.Message{
					From: f.From, To: self, Tag: f.Tag, Data: f.Data, SentRound: f.Round - 1,
				})
			case !s.seen[f.From]: // a repeated EOR (reconnect redelivery) counts once
				s.seen[f.From] = true
				s.done[f.From] = len(f.Data) == 1 && f.Data[0] == 1
				s.eors++
			}
		}
		slices.SortStableFunc(cur.msgs, func(a, b sched.Message) int {
			if a.From != b.From {
				return a.From - b.From
			}
			return strings.Compare(a.Tag, b.Tag)
		})
		allDone := true
		for peer := 0; peer < n; peer++ {
			if peer != self && !cur.done[peer] {
				allDone = false
				break
			}
		}
		return cur.msgs, allDone, nil
	}

	// Start: the frames it emits are delivered in round 0.
	if err := sendOuts(proc.Start(), 0); err != nil {
		return stats, err
	}
	if err := sendEOR(0, proc.Done()); err != nil {
		return stats, err
	}
	for round := 0; ; round++ {
		inbox, peersDone, err := collect(round)
		if err != nil {
			return stats, err
		}
		// Top-of-round termination check, as in sched.SyncEngine: the
		// EOR(round) flags reflect every peer's state after Step(round-1),
		// the same global state the engine's allDone scan observes. Every
		// node evaluates the same predicate, so all exit at the same round.
		if proc.Done() && peersDone {
			stats.Rounds = round
			return stats, nil
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w: node %d round limit %d exceeded", ErrTransport, self, maxRounds)
		}
		var outs []sched.Outgoing
		if !proc.Done() {
			stats.Delivered += len(inbox)
			if traceFn != nil {
				for _, m := range inbox {
					traceFn(m)
				}
			}
			outs = proc.Step(round, inbox)
		}
		if err := sendOuts(outs, round+1); err != nil {
			return stats, err
		}
		if err := sendEOR(round+1, proc.Done()); err != nil {
			return stats, err
		}
		stats.Rounds = round + 1
	}
}
