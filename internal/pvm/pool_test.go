package pvm

import (
	"testing"

	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/sim"
)

// retainCounter is a payload that counts the shares the fault injector
// forwards to it through Message.Retain.
type retainCounter struct{ retains int }

func (r *retainCounter) Retain() { r.retains++ }

// TestDuplicateDeliveryTakesShares runs pooled messages through a
// prob-1 duplication window, so every receiver dequeues the same
// *Message twice. Each dequeue must see the message as sent, and the
// message may be recycled only once every receiver has released both of
// its shares. The delayed cases push both copies through the
// injector's scheduled-event path instead of the inline one.
func TestDuplicateDeliveryTakesShares(t *testing.T) {
	const (
		dataTag = 7
		endTag  = 8
		size    = 96
	)
	for _, tc := range []struct {
		name    string
		readers int
		delay   bool
	}{
		{"unicast", 1, false},
		{"unicast-delayed", 1, true},
		{"multicast", 3, false},
		{"multicast-delayed", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &faults.Plan{Duplicates: []faults.DuplicateWindow{{From: 0, To: 100, Prob: 1}}}
			if tc.delay {
				plan.Delays = []faults.DelaySpike{{From: 0, To: 100, Delay: 0.002,
					Src: faults.AnyNode, Dst: faults.AnyNode}}
			}
			eng := sim.NewEngine(1)
			m := NewMachine(eng, faults.Wrap(netsim.New(eng, netsim.DefaultConfig()), plan), DefaultConfig())

			data := &retainCounter{}
			var sent *Message
			m.SendHook = func(src int, msg *Message) {
				if msg.Tag == dataTag {
					sent = msg
				}
			}
			dsts := make([]int, tc.readers)
			for i := range dsts {
				dsts[i] = i + 1
			}
			m.Spawn("send", func(task *Task) {
				task.Multicast(dsts, dataTag, size, data, nil)
				task.Compute(50 * sim.Millisecond)
				task.Multicast(dsts, endTag, 0, nil, nil)
			})
			got := 0
			for range dsts {
				m.Spawn("recv", func(task *Task) {
					for k := 0; k < 2; k++ {
						msg := task.Recv(0, dataTag)
						if msg != sent || msg.Src != 0 || msg.Tag != dataTag ||
							msg.Size != size || msg.Data != data {
							t.Errorf("task %d dequeue %d: got %p %+v, sent %p", task.ID(), k, msg, *msg, sent)
							return
						}
						got++
					}
					// The end message's dequeue releases this task's last
					// share of the data message.
					task.Recv(0, endTag)
				})
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 2*tc.readers {
				t.Fatalf("%d intact dequeues, want %d", got, 2*tc.readers)
			}
			if data.retains != tc.readers {
				t.Errorf("payload retained %d times, want one per duplicate (%d)", data.retains, tc.readers)
			}
			recycled := false
			for _, free := range m.msgFree {
				recycled = recycled || free == sent
			}
			if !recycled {
				t.Error("data message not recycled after its last share was released")
			}
		})
	}
}
