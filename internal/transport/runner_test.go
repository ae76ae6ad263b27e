package transport

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"relaxedbvc/internal/sched"
)

// scriptTransport is node 0 of a 3-node cluster whose incoming frames
// are a fixed script; what it sends is discarded.
type scriptTransport struct{ in []Frame }

func (s *scriptTransport) Self() int          { return 0 }
func (s *scriptTransport) N() int             { return 3 }
func (s *scriptTransport) Send(f Frame) error { return nil }
func (s *scriptTransport) Close() error       { return nil }

func (s *scriptTransport) Recv(ctx context.Context) (Frame, error) {
	if len(s.in) == 0 {
		return Frame{}, fmt.Errorf("%w: script exhausted", ErrClosed)
	}
	f := s.in[0]
	s.in = s.in[1:]
	return f, nil
}

// inboxRecorder steps twice, recording each inbox as "from:tag".
type inboxRecorder struct{ inboxes [][]string }

func (p *inboxRecorder) Start() []sched.Outgoing { return nil }
func (p *inboxRecorder) Done() bool              { return len(p.inboxes) == 2 }

func (p *inboxRecorder) Step(round int, delivered []sched.Message) []sched.Outgoing {
	got := []string{}
	for _, m := range delivered {
		got = append(got, fmt.Sprintf("%d:%s", m.From, m.Tag))
	}
	p.inboxes = append(p.inboxes, got)
	return nil
}

func eorFrame(from, round int, done bool) Frame {
	flag := byte(0)
	if done {
		flag = 1
	}
	return Frame{From: from, To: 0, Round: round, Tag: eorTag, Data: []byte{flag}}
}

func dataFrame(from, round int, tag string) Frame {
	return Frame{From: from, To: 0, Round: round, Tag: tag}
}

// TestRunSyncBuffers pins the two-slot round buffers: what is dropped,
// counted once, held for the next round, or refused.
func TestRunSyncBuffers(t *testing.T) {
	finish := []Frame{eorFrame(1, 2, true), eorFrame(2, 2, true)}
	cases := []struct {
		name    string
		script  []Frame
		want    [][]string
		wantErr []string // substrings of the error; nil means success
	}{
		{
			name: "stale frames dropped",
			script: append([]Frame{
				dataFrame(1, 0, "a"), eorFrame(1, 0, false), eorFrame(2, 0, false),
				dataFrame(1, 0, "a"), eorFrame(2, 0, false), // reconnect duplicates
				dataFrame(2, 1, "b"), eorFrame(1, 1, false), eorFrame(2, 1, false),
			}, finish...),
			want: [][]string{{"1:a"}, {"2:b"}},
		},
		{
			name: "duplicate EOR counted once",
			script: append([]Frame{
				eorFrame(1, 0, false), eorFrame(1, 0, false),
				dataFrame(2, 0, "c"), eorFrame(2, 0, false),
				eorFrame(1, 1, false), eorFrame(2, 1, false),
			}, finish...),
			want: [][]string{{"2:c"}, {}},
		},
		{
			name: "next round held",
			script: append([]Frame{
				eorFrame(1, 0, false),
				dataFrame(1, 1, "early"), eorFrame(1, 1, false),
				dataFrame(2, 0, "x"), eorFrame(2, 0, false),
				dataFrame(2, 1, "a"), eorFrame(2, 1, false),
			}, finish...),
			want: [][]string{{"2:x"}, {"1:early", "2:a"}},
		},
		{
			name: "two rounds ahead refused",
			script: []Frame{
				eorFrame(1, 0, false), dataFrame(2, 2, "far"),
			},
			wantErr: []string{"round 0", "peer 2", "round 2"},
		},
		{
			name:    "unknown peer refused",
			script:  []Frame{dataFrame(5, 0, "x")},
			wantErr: []string{"peer 5"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proc := &inboxRecorder{}
			st, err := RunSync(context.Background(), &scriptTransport{in: tc.script}, proc, 0, nil)
			if tc.wantErr != nil {
				if !errors.Is(err, ErrTransport) {
					t.Fatalf("err = %v, want an ErrTransport chain", err)
				}
				for _, sub := range tc.wantErr {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("err %q does not name %q", err, sub)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.Rounds != 2 {
				t.Errorf("rounds = %d, want 2", st.Rounds)
			}
			if !reflect.DeepEqual(proc.inboxes, tc.want) {
				t.Errorf("inboxes = %q, want %q", proc.inboxes, tc.want)
			}
		})
	}
}
