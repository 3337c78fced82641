//! Known-bad lock-order fixture: a mutex guard held across a channel
//! receive, which stalls every other thread queued on the lock for as
//! long as the sender takes, and one held across a client's frame round
//! trip, which stalls it for as long as the peer takes. The analyzer
//! must flag both held-across-blocking sites; the explicit `drop`
//! variant below must stay clean.

impl State {
    fn drain(&self) {
        let g = self.queue.lock();
        self.rx.recv();
        g.touch();
    }

    fn forward(&self) {
        let g = self.queue.lock();
        self.client.request_frame(frame);
        g.touch();
    }

    fn drain_released(&self) {
        let g = self.queue.lock();
        drop(g);
        self.rx.recv();
    }
}
