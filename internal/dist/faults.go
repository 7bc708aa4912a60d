package dist

import (
	"sync"
	"time"

	"repro/internal/workload"
)

// Fault injection. FaultTransport decorates any Transport with the
// misbehaviors of a real lossy interconnect — delivery delay,
// duplication, reordering, and dropped frames that a sender-side retry
// layer retransmits after a timeout. Faults apply per wire frame, so a
// chunked logical message has each of its chunks independently delayed,
// duplicated, reordered, or dropped — chunks of one message genuinely
// arrive out of order and interleaved with other streams, which is
// where reassembly bugs would live. The decorator never loses a frame
// permanently (a drop is always followed by a retry), so it models an
// unreliable link underneath a reliable delivery layer, which is
// exactly the regime the reproducibility claim must survive: the
// protocols reassemble and deduplicate per (from, seq) stream and merge
// order-independently, so every fault plan yields bit-identical
// results.

// FaultPlan configures the injected faults. The zero value injects
// nothing. All randomness is drawn from a deterministic seeded PRNG, so
// a plan replays identically.
type FaultPlan struct {
	// Seed drives the fault PRNG.
	Seed uint64
	// DropProb is the probability that one transmission attempt of a
	// frame is dropped. A dropped frame is retransmitted after
	// RetryDelay (possibly dropped again, up to MaxDrops consecutive
	// drops), modeling a sender-side reliability layer over a lossy
	// link.
	DropProb float64
	// MaxDrops caps consecutive drops of one frame (default 3).
	MaxDrops int
	// RetryDelay is the retransmission timeout after a drop (default
	// 1ms).
	RetryDelay time.Duration
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// MaxDelay adds a uniform random delivery delay in [0, MaxDelay).
	MaxDelay time.Duration
	// Reorder deliberately holds back every second frame per
	// destination long enough that later frames overtake it.
	Reorder bool
}

// Active reports whether the plan injects any fault at all.
func (p FaultPlan) Active() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.MaxDelay > 0 || p.Reorder
}

func (p FaultPlan) maxDrops() int {
	if p.MaxDrops <= 0 {
		return 3
	}
	return p.MaxDrops
}

func (p FaultPlan) retryDelay() time.Duration {
	if p.RetryDelay <= 0 {
		return time.Millisecond
	}
	return p.RetryDelay
}

// FaultTransport injects the faults of a FaultPlan into an inner
// transport. Sends with pending faults are completed asynchronously;
// Close waits for in-flight deliveries to resolve.
type FaultTransport struct {
	inner Transport
	plan  FaultPlan

	mu       sync.Mutex
	rng      *workload.RNG
	nthTo    map[int]uint64 // frames sent per destination, for Reorder
	closing  bool           // no new async deliveries may start
	inflight sync.WaitGroup
}

// NewFaultTransport wraps inner with the fault plan.
func NewFaultTransport(inner Transport, plan FaultPlan) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		plan:  plan,
		rng:   workload.NewRNG(plan.Seed ^ 0x9E3779B97F4A7C15),
		nthTo: make(map[int]uint64),
	}
}

func (t *FaultTransport) Nodes() int { return t.inner.Nodes() }

// Recv delegates to the inner transport.
func (t *FaultTransport) Recv(id int, timeout time.Duration) (Frame, error) {
	return t.inner.Recv(id, timeout)
}

// Send schedules the delivery of f according to the fault plan. The
// frame is delivered at least once; errors from asynchronous deliveries
// after Close are expected and discarded.
func (t *FaultTransport) Send(f Frame) error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return ErrClosed
	}
	drops := 0
	for drops < t.plan.maxDrops() && t.rng.Float64() < t.plan.DropProb {
		drops++
	}
	dup := t.rng.Float64() < t.plan.DupProb
	var delay time.Duration
	if t.plan.MaxDelay > 0 {
		delay = time.Duration(t.rng.Float64() * float64(t.plan.MaxDelay))
	}
	if t.plan.Reorder {
		if t.nthTo[f.To]%2 == 1 {
			// Held back: delivered after frames sent later.
			delay += t.plan.retryDelay() + t.plan.MaxDelay
		}
		t.nthTo[f.To]++
	}
	delay += time.Duration(drops) * t.plan.retryDelay()
	async := delay > 0 || dup
	if async {
		// Registered under the lock: Close sets closing before it waits,
		// so no delivery can start once the drain has begun.
		t.inflight.Add(1)
	}
	t.mu.Unlock()

	if !async {
		return t.inner.Send(f)
	}
	go func() {
		defer t.inflight.Done()
		if delay > 0 {
			time.Sleep(delay)
		}
		_ = t.inner.Send(f) // post-Close delivery failures are expected
		if dup {
			_ = t.inner.Send(f)
		}
	}()
	return nil
}

// Close waits for in-flight faulty deliveries, then closes the inner
// transport.
func (t *FaultTransport) Close() error {
	t.mu.Lock()
	t.closing = true
	t.mu.Unlock()
	// Closing the inner transport first unblocks sleepy deliveries'
	// Sends immediately after their delay elapses; the wait is bounded
	// by the largest scheduled delay.
	err := t.inner.Close()
	t.inflight.Wait()
	return err
}

var _ Transport = (*FaultTransport)(nil)
