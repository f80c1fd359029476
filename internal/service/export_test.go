package service

// Subscribers reports how many event-stream clients the job has, so the
// external tests can check that a disconnected client unsubscribed.
func (j *Job) Subscribers() int {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return len(j.subs)
}
