package colstore

import "sync"

// prefetcher is the store's bounded async readahead engine: a small worker
// pool draining a bounded task queue of block IDs to load into the buffer
// pool ahead of the scan. Everything about it is best-effort — a full
// queue drops the task, a failed load is swallowed (and never cached), and
// shutdown abandons whatever is still queued — because readahead can only
// ever be an optimization: the demand read path loads (and surfaces
// errors for) anything readahead didn't get to.
//
// Workers start lazily on the first enqueue so stores that never prefetch
// (cache-disabled configs) spawn no goroutines. They reach the store only
// through the task in hand, so idle workers of a store nobody closed do not
// keep its segments and pool reachable.
type prefetcher struct {
	mu      sync.Mutex
	started bool
	stopped bool

	queue chan prefetchTask
	quit  chan struct{}
	wg    sync.WaitGroup
}

// prefetchTask is one readahead request: load the scan's column pages (and
// the row IDs) of these blocks of the table generation captured at enqueue
// time — the pages its demand reads will ask for and nothing else. The
// tableState pin (not a name lookup at drain time) means a segment swap
// mid-flight reads from the superseded segment, which the pin keeps open,
// and inserts under the dead generation's key, where the pool's generation
// floor refuses it.
type prefetchTask struct {
	store *Store
	table string
	st    *tableState
	cols  []int
	ids   []int
}

const (
	prefetchWorkers  = 4
	prefetchQueueCap = 64
)

func newPrefetcher() *prefetcher {
	return &prefetcher{
		queue: make(chan prefetchTask, prefetchQueueCap),
		quit:  make(chan struct{}),
	}
}

// enqueue hands a task to the workers, starting them on first use.
// Non-blocking: a full queue drops the task.
func (p *prefetcher) enqueue(t prefetchTask) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	if !p.started {
		p.started = true
		p.wg.Add(prefetchWorkers)
		for i := 0; i < prefetchWorkers; i++ {
			go p.worker()
		}
	}
	p.mu.Unlock()
	select {
	case p.queue <- t:
	case <-p.quit:
	default:
	}
}

func (p *prefetcher) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case t := <-p.queue:
			for _, id := range t.ids {
				select {
				case <-p.quit:
					return
				default:
				}
				t.store.encodedBlock(t.table, t.st, id, t.cols, true) //nolint:errcheck // best-effort by design
			}
		}
	}
}

// shutdown stops the workers and waits for in-flight loads to finish.
// Idempotent; Store.Close calls it before closing any segment so a worker
// can never read from a closed file.
func (p *prefetcher) shutdown() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	started := p.started
	p.mu.Unlock()
	close(p.quit)
	if started {
		p.wg.Wait()
	}
}
