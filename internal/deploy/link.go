package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The link layer both serving tiers share: the edge fleet (the monolithic
// Cloud, or a regional coordinator) and the Root each hold one link per
// peer, admit the peers' initial and resumed connections through one
// acceptor, run every exchange through one capped-backoff retry loop, and
// end the run with one Done/Error broadcast. Peers redial through one
// resumable loop. What the tiers keep to themselves is only what differs:
// how a Hello resolves to a link, what the Welcome carries, and the
// per-slot exchange itself.

// link is the serving side's connection slot for one peer: an edge, or a
// regional coordinator. The acceptor delivers handshaken connections
// (initial and resumed) into incoming; exchanges take them through acquire
// and keep using one until an exchange on it fails — switching to a fresher
// delivery eagerly would make the retry accounting depend on how quickly
// the peer redialed. A dropped peer leaves its link empty until a resume
// arrives; a dead one admits nothing more.
type link struct {
	kind     string // "edge" or "region": names the link in errors and rejections
	id       int    // global edge id, or region id
	token    string
	incoming chan net.Conn

	// xmu serializes exchanges on the link: after an adoption, several
	// shards may share one coordinator, and each exchange must own the
	// connection for its full write+read.
	xmu sync.Mutex

	mu      sync.Mutex
	conn    net.Conn
	claimed bool  // initial connection admitted (true from birth on adopted edge links)
	dead    bool  // departed or retired: out of the rebalancing election, admits no resume
	seed    int64 // the fleet seed a coordinator announced in its Hello
	resumes int
}

func newLink(kind string, id int, token string, claimed bool) *link {
	return &link{kind: kind, id: id, token: token, incoming: make(chan net.Conn, 1), claimed: claimed}
}

// String names the link in exchange errors.
func (l *link) String() string {
	if l.kind == "edge" {
		return fmt.Sprintf("edge %d", l.id)
	}
	return fmt.Sprintf("region link %d", l.id)
}

// claim marks the link's initial admission and records the peer's announced
// fleet seed. It reports false when the link was already claimed.
func (l *link) claim(seed int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.claimed {
		return false
	}
	l.claimed, l.seed = true, seed
	return true
}

// unclaim rolls a failed admission back.
func (l *link) unclaim() {
	l.mu.Lock()
	l.claimed = false
	l.mu.Unlock()
}

// resumeReject validates a resume attempt, returning the rejection reason
// ("" to accept). The token is tested first, so a forged resume is told so
// whatever state the link is in.
func (l *link) resumeReject(token string, doneSlots, horizon int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case token != l.token:
		return "bad resume token"
	case !l.claimed:
		return fmt.Sprintf("%s id %d never joined", l.kind, l.id)
	case l.dead:
		return fmt.Sprintf("%s id %d retired", l.kind, l.id)
	case doneSlots < 0 || doneSlots > horizon:
		return fmt.Sprintf("implausible resume position %d", doneSlots)
	}
	return ""
}

func (l *link) resumeCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resumes
}

// deliver hands a fresh connection to the link, replacing any stale one that
// was never consumed (latest connection wins).
func (l *link) deliver(conn net.Conn) {
	for {
		select {
		case l.incoming <- conn:
			return
		default:
			select {
			case stale := <-l.incoming:
				stale.Close()
			default:
			}
		}
	}
}

// acquire returns the link's connection: the current one while it lasts,
// otherwise the next delivered resume, waiting up to wait for the peer to
// redial (nil when none arrives). Called with xmu held.
func (l *link) acquire(wait time.Duration) net.Conn {
	if conn := l.current(); conn != nil {
		return conn
	}
	select {
	case conn := <-l.incoming:
		return l.replace(conn)
	default:
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case conn := <-l.incoming:
		return l.replace(conn)
	case <-t.C:
		return nil
	}
}

// live returns the link's connection for a final broadcast, taking a resume
// delivered since the last exchange if there is one. Callers must not race
// an exchange (the engine has returned, or never started).
func (l *link) live() net.Conn {
	select {
	case conn := <-l.incoming:
		return l.replace(conn)
	default:
		return l.current()
	}
}

// replace installs conn as the link's connection, closing the one it
// supersedes, and returns it; a dead link closes conn and returns nil.
func (l *link) replace(conn net.Conn) net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		conn.Close()
		return nil
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	return conn
}

func (l *link) current() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// drop discards a connection whose exchange failed; the next acquire waits
// for a resumed one.
func (l *link) drop() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
}

// markDead takes the link out of the rebalancing election without closing
// its connection: a departing coordinator releases its edges only once the
// root closes the link (see retire), so the edges cannot redial the adopter
// before the adopt frame installs their range.
func (l *link) markDead() {
	l.mu.Lock()
	l.dead = true
	l.mu.Unlock()
}

// retire marks the link dead and closes everything it holds. Safe to call
// repeatedly.
func (l *link) retire() {
	l.markDead()
	l.drop()
	for {
		select {
		case c := <-l.incoming:
			c.Close()
		default:
			return
		}
	}
}

func (l *link) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

func (l *link) isLive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.claimed && !l.dead
}

// try runs one exchange on the link's connection, owning the link for its
// duration and waiting up to wait for a dropped peer to redial. A failed
// exchange drops the connection — except a departure, whose connection stays
// open until the root retires the link: closing it is what releases the
// departing coordinator's edges, so they never redial the adopter before
// the adopt frame installs them.
func (l *link) try(wait time.Duration, exchange func(conn net.Conn) error) error {
	l.xmu.Lock()
	defer l.xmu.Unlock()
	if l.isDead() {
		// A sibling shard already saw the departure; don't burn budget
		// re-discovering it.
		return fmt.Errorf("deploy: %v: %w", l, errRegionLeft)
	}
	conn := l.acquire(wait)
	if conn == nil {
		return Transientf("%v: no live connection within %v", l, wait)
	}
	err := exchange(conn)
	if err != nil && !errors.Is(err, errRegionLeft) {
		l.drop()
	}
	return err
}

// attempt runs exchange on the link until it succeeds or fails fatally,
// retrying transient failures up to cfg.Attempts times. Retry k sleeps
// backoffDelay(k) drawn from jitter, so the sleep sequence replays
// bit-for-bit. It returns the retries spent; a transient error comes back
// only once the budget is exhausted.
func (l *link) attempt(cfg RetryConfig, jitter *rand.Rand, sleep func(time.Duration), exchange func(conn net.Conn) error) (retries int, err error) {
	retry := cfg.withDefaults()
	for {
		err = l.try(retry.ResumeWait, exchange)
		if err == nil || !Transient(err) || retries >= cfg.Attempts {
			return retries, err
		}
		retries++
		sleep(backoffDelay(retry, retries, jitter))
	}
}

// broadcast sends m to every link's live connection. It is best-effort by
// design: one dead peer must not leave the others hanging until their read
// deadlines, so every link is attempted and the failures come back joined
// (callers ignore them under Degrade, and when already failing).
func broadcast(links []*link, m *Message) error {
	var errs []error
	for _, l := range links {
		conn := l.live()
		if conn == nil {
			continue // down or departed; nobody to notify
		}
		if err := WriteMessage(conn, m); err != nil {
			errs = append(errs, fmt.Errorf("deploy: send done to %s %d: %w", l.kind, l.id, err))
		}
	}
	return errors.Join(errs...)
}

// tier is what the edge fleet and the root do differently when admitting a
// peer.
type tier interface {
	// hello resolves a Hello to its link, or returns why it is rejected. A
	// nil link without a reason closes the connection without a verdict.
	hello(m *Message) (l *link, reject string)
	// welcome builds the reply to an accepted Hello and reports whether it
	// completes one of the run's initial admissions.
	welcome(m *Message, l *link) (w *Message, initial bool)
	// members lists every link in a deterministic order.
	members() []*link
}

// acceptor admits a tier's connections for a whole run: initial handshakes
// first, session resumes (and standby joins) once the run is underway.
type acceptor struct {
	handshake time.Duration // Hello/Welcome deadline: 0 selects DefaultHandshakeTimeout, negative none
	horizon   int           // bounds a resume's plausible position
	want      int           // initial admissions serve waits for

	initial   chan struct{}
	acceptErr chan error
	done      atomic.Bool // the run is over: admit nothing more
}

func newAcceptor(handshake time.Duration, horizon, want int) *acceptor {
	return &acceptor{
		handshake: handshake,
		horizon:   horizon,
		want:      want,
		initial:   make(chan struct{}, want+1),
		acceptErr: make(chan error, 1),
	}
}

// serve starts admitting connections from ln into t's links and blocks
// until the initial admissions are complete (immediately when none are
// wanted). The acceptor keeps running so dropped peers can redial and
// resume mid-run. The returned stop function halts admission, unblocks a
// blocked Accept without closing the caller's listener, and retires every
// link; call it exactly once, when the run is over.
func (a *acceptor) serve(ln net.Listener, t tier) (stop func(), err error) {
	go func() {
		// Admissions run concurrently so one slow (or silent) client cannot
		// wedge the run.
		var wg sync.WaitGroup
		for {
			conn, err := ln.Accept()
			if err != nil {
				wg.Wait() // let in-flight admissions finish before reporting
				if !a.done.Load() {
					a.acceptErr <- err
				}
				return
			}
			if a.done.Load() {
				conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.admit(conn, t)
			}()
		}
	}()
	stop = func() {
		a.done.Store(true)
		// A deadline in the distant past forces an immediate timeout.
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // best-effort unblock
		}
		for _, l := range t.members() {
			l.retire()
		}
	}
	for connected := 0; connected < a.want; connected++ {
		select {
		case <-a.initial:
		case err := <-a.acceptErr:
			// The acceptor is gone; admissions that completed before it
			// died are already counted in a.initial.
			if connected+len(a.initial) < a.want {
				stop()
				return nil, fmt.Errorf("deploy: accept: %w", err)
			}
			return stop, nil
		}
	}
	return stop, nil
}

// admit performs one connection's handshake under the handshake deadline
// and delivers the connection to its link. Bad clients are rejected and
// closed without disturbing the run.
func (a *acceptor) admit(conn net.Conn, t tier) {
	admitted := false
	defer func() {
		if !admitted {
			conn.Close()
		}
	}()
	timeout := a.handshake
	if timeout == 0 {
		timeout = DefaultHandshakeTimeout
	}
	if timeout > 0 {
		//lint:allow nodeterm real I/O deadline on a live connection; wall time is the only clock the kernel honors
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return
		}
	}
	m, err := ReadMessage(conn)
	if err != nil {
		return
	}
	l, reject := t.hello(m)
	switch {
	case reject != "" || l == nil:
	case m.Resume:
		reject = l.resumeReject(m.ResumeToken, m.DoneSlots, a.horizon)
	case !l.claim(m.Seed):
		reject = fmt.Sprintf("duplicate %s id %d", l.kind, l.id)
	}
	if reject != "" {
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: reject})
		return
	}
	if l == nil {
		return
	}
	w, initial := t.welcome(m, l)
	if err := WriteMessage(conn, w); err != nil {
		if !m.Resume {
			l.unclaim()
		}
		return
	}
	if timeout > 0 {
		conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if m.Resume {
		l.mu.Lock()
		l.resumes++
		l.mu.Unlock()
	}
	l.deliver(conn)
	if initial {
		a.initial <- struct{}{}
	}
	admitted = true
}

// redial serves one resumable session over successive connections from
// dial: run serves a connection and reports whether the session is over,
// and a connection that ends short of that is redialed, up to maxResumes
// times. dial is also what paces reconnection — a dialer may sleep or back
// off internally; redial itself never waits, so deterministic harnesses stay
// in control of time.
func redial(dial func() (net.Conn, error), maxResumes int, who string, run func(conn net.Conn) (done bool, err error)) error {
	if dial == nil {
		return fmt.Errorf("deploy: nil dialer")
	}
	for resumes := 0; ; resumes++ {
		conn, err := dial()
		if err == nil {
			var done bool
			done, err = run(conn)
			conn.Close()
			if done {
				return err
			}
		}
		if resumes >= maxResumes {
			return fmt.Errorf("deploy: %s: resume budget exhausted after %d resumes: %w", who, resumes, err)
		}
	}
}
