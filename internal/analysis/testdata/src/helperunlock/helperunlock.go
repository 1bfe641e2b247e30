// Fixture for lock summaries carried through helper methods: a commit that
// releases its locks through a chain of helper methods, declared callers
// first so that each summary pass settles one more link. The answer must not
// depend on how many links that takes or on the order the functions are
// walked in: the correct caller is silent on every run, the buggy one always
// fires.
package fixture

import "sync"

type world struct {
	//dynlint:lock-level 10
	mu     sync.RWMutex
	shards [4]struct {
		//dynlint:lock-level 40 indexed
		mu sync.Mutex
	}
}

// checkpointOK commits, then takes the world exclusively: commit has
// released everything by the time it returns.
func (w *world) checkpointOK() {
	w.commit()
	w.mu.Lock()
	w.mu.Unlock()
}

// checkpointHeld forgets the release and acquires while still holding.
func (w *world) checkpointHeld() {
	w.lockCommit()
	w.mu.Lock() // want "already held"
	w.mu.Unlock()
	w.unlockCommit()
}

func (w *world) commit() {
	w.lockCommit()
	w.unlockCommit()
}

func (w *world) unlockCommit() { w.release1() }
func (w *world) release1()     { w.release2() }
func (w *world) release2()     { w.release3() }
func (w *world) release3()     { w.release4() }
func (w *world) release4()     { w.release5() }
func (w *world) release5()     { w.release6() }
func (w *world) release6()     { w.release7() }
func (w *world) release7()     { w.release8() }
func (w *world) release8()     { w.release9() }
func (w *world) release9() {
	w.shards[1].mu.Unlock()
	w.mu.RUnlock()
}

func (w *world) lockCommit() { w.acquire1() }
func (w *world) acquire1()   { w.acquire2() }
func (w *world) acquire2()   { w.acquire3() }
func (w *world) acquire3()   { w.acquire4() }
func (w *world) acquire4()   { w.acquire5() }
func (w *world) acquire5()   { w.acquire6() }
func (w *world) acquire6()   { w.acquire7() }
func (w *world) acquire7()   { w.acquire8() }
func (w *world) acquire8()   { w.acquire9() }
func (w *world) acquire9() {
	w.mu.RLock()
	w.shards[1].mu.Lock()
}
