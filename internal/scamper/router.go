package scamper

import (
	"fmt"
	"sync"
	"time"
)

// Router multiplexes one Controller's accept stream across concurrent
// consumers. The fleet coordinator runs many remote shards against a
// single listening controller; each shard dials its own agent and then
// needs *that* agent's session, but Controller.Accept surfaces new
// sessions in arrival order. The router buffers arrivals by vantage-point
// name and lets each shard claim its own, whichever worker it is running
// on. Reconnections of known agents never surface here — the controller
// routes them to the existing RemoteProber internally, which is exactly
// the session-resume path a redialling shard reuses.
type Router struct {
	ctrl *Controller

	mu      sync.Mutex
	ready   map[string][]*RemoteProber
	waiters map[string][]chan *RemoteProber
	err     error
	done    chan struct{}
}

// NewRouter starts routing ctrl's accept stream. Close the controller to
// stop it; pending and future Claims then fail with the accept error.
func NewRouter(ctrl *Controller) *Router {
	r := &Router{
		ctrl:    ctrl,
		ready:   make(map[string][]*RemoteProber),
		waiters: make(map[string][]chan *RemoteProber),
		done:    make(chan struct{}),
	}
	go r.loop()
	return r
}

func (r *Router) loop() {
	for {
		p, err := r.ctrl.Accept()
		if err != nil {
			r.mu.Lock()
			r.err = err
			r.mu.Unlock()
			close(r.done)
			return
		}
		r.mu.Lock()
		name := p.Name()
		if ws := r.waiters[name]; len(ws) > 0 {
			ws[0] <- p
			r.waiters[name] = ws[1:]
		} else {
			r.ready[name] = append(r.ready[name], p)
		}
		r.mu.Unlock()
	}
}

// Claim returns the next new session for the named vantage point, waiting
// up to timeout for its agent to finish a handshake. Closing abort — the
// caller's signal that the agent has exited — ends the wait at once: a
// dead agent's session can never arrive. A shard whose agent was killed
// and replaced claims again and receives the replacement's fresh session.
func (r *Router) Claim(name string, timeout time.Duration, abort <-chan struct{}) (*RemoteProber, error) {
	r.mu.Lock()
	if q := r.ready[name]; len(q) > 0 {
		p := q[0]
		r.ready[name] = q[1:]
		r.mu.Unlock()
		return p, nil
	}
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return nil, err
	}
	ch := make(chan *RemoteProber, 1)
	r.waiters[name] = append(r.waiters[name], ch)
	r.mu.Unlock()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case p := <-ch:
		return p, nil
	case <-r.done:
		// The loop may have delivered to ch just before exiting.
		select {
		case p := <-ch:
			return p, nil
		default:
		}
		r.mu.Lock()
		err := r.err
		r.mu.Unlock()
		return nil, err
	case <-t.C:
		if p := r.abandon(name, ch); p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("scamper: no session from agent %q within %v", name, timeout)
	case <-abort:
		if p := r.abandon(name, ch); p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("scamper: agent %q exited before a session formed", name)
	}
}

// abandon removes ch from name's waiter queue. A delivery can race the
// caller giving up; abandon returns that session, preferring it to the
// error.
func (r *Router) abandon(name string, ch chan *RemoteProber) *RemoteProber {
	r.mu.Lock()
	defer r.mu.Unlock()
	ws := r.waiters[name]
	for i, w := range ws {
		if w == ch {
			r.waiters[name] = append(ws[:i:i], ws[i+1:]...)
			break
		}
	}
	select {
	case p := <-ch:
		return p
	default:
		return nil
	}
}
