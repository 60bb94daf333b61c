package wire

import (
	"container/list"
	"sync"
)

// SessionTable is the LRU-capped session store of both protocol endpoints: a
// worker's sessions hold the evaluation keys a client uploaded, a router's
// the session-open payloads it replays to workers. Either way it is a key
// cache — a hit skips the re-upload, and a client whose session was evicted
// re-opens and pays the transfer again. It is safe for concurrent use.
type SessionTable[V any] struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are tableEntry[V]
	byID    map[uint64]*list.Element
	nextID  uint64
	opened  uint64
	evicted uint64
}

type tableEntry[V any] struct {
	id uint64
	v  V
}

// NewSessionTable builds a table holding at most cap sessions.
func NewSessionTable[V any](cap int) *SessionTable[V] {
	return &SessionTable[V]{cap: cap, ll: list.New(), byID: map[uint64]*list.Element{}}
}

// Add registers a new session built by newSession from its assigned ID, and
// evicts the least recently used sessions beyond the cap.
func (t *SessionTable[V]) Add(newSession func(id uint64) V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.opened++
	v := newSession(t.nextID)
	t.byID[t.nextID] = t.ll.PushFront(tableEntry[V]{t.nextID, v})
	for t.ll.Len() > t.cap {
		last := t.ll.Back()
		t.ll.Remove(last)
		delete(t.byID, last.Value.(tableEntry[V]).id)
		t.evicted++
	}
	return v
}

// Get returns a session and marks it most recently used. Work already
// holding a session is unaffected by its later eviction; eviction only makes
// the next lookup miss.
func (t *SessionTable[V]) Get(id uint64) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.byID[id]
	if !ok {
		var zero V
		return zero, false
	}
	t.ll.MoveToFront(el)
	return el.Value.(tableEntry[V]).v, true
}

// Remove drops a session; it does not count as an eviction.
func (t *SessionTable[V]) Remove(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.byID[id]; ok {
		t.ll.Remove(el)
		delete(t.byID, id)
	}
}

// Stats returns the sessions ever opened, those evicted by the cap, and those
// live now.
func (t *SessionTable[V]) Stats() (opened, evicted uint64, active int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opened, t.evicted, t.ll.Len()
}

// Snapshot returns the live sessions, most recently used first.
func (t *SessionTable[V]) Snapshot() []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]V, 0, t.ll.Len())
	for el := t.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(tableEntry[V]).v)
	}
	return out
}
