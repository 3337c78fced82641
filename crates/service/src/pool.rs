//! The one worker-pool type: a fixed set of named threads draining a
//! FIFO task queue. The background-job manager ([`crate::jobs`]) and
//! the reactor's dispatch offload both run on it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of `{prefix}-{i}` worker threads. [`WorkerPool::spawn`]
/// never blocks; dropping the pool runs every task still queued, then
/// joins the workers, so an orderly shutdown never discards work.
pub(crate) struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Queue {
    state: Mutex<State>,
    ready: Condvar,
}

/// The stop flag lives under the queue lock, so a worker between its
/// empty check and its wait cannot miss the wake-up `Drop` sends.
#[derive(Default)]
struct State {
    tasks: VecDeque<Task>,
    stop: bool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl WorkerPool {
    /// Starts `threads.max(1)` workers named `{prefix}-{i}`.
    pub(crate) fn new(prefix: &str, threads: usize) -> Self {
        let queue = Arc::<Queue>::default();
        let workers = (0..threads.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || work(&queue))
                    .expect("a host that cannot spawn a thread cannot serve")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Queues one task; never blocks the caller.
    pub(crate) fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.queue.lock().tasks.push_back(Box::new(task));
        self.queue.ready.notify_one();
    }
}

/// One worker: run tasks in FIFO order until the queue is empty *and*
/// the pool is stopping.
fn work(queue: &Queue) {
    loop {
        let task = {
            let mut state = queue.lock();
            loop {
                if let Some(task) = state.tasks.pop_front() {
                    break task;
                }
                if state.stop {
                    return;
                }
                state = queue
                    .ready
                    // analyze: allow(lock_order): Condvar::wait atomically releases the queue lock while parked
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        task();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.lock().stop = true;
        self.queue.ready.notify_all();
        // A task can own the last handle to the pool, so this may run
        // *on* a worker: joining that thread would deadlock. It exits on
        // its own once this returns and the queue is empty.
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_task_and_drains_on_drop() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new("pool-test", 2);
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                let name = std::thread::current().name().map(str::to_owned);
                assert!(matches!(
                    name.as_deref(),
                    Some("pool-test-0" | "pool-test-1")
                ));
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop joins the workers only after the queue is empty, so
        // every queued task must have run by the time it returns.
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 64);
        // A zero-thread request still gets one worker.
        let pool = WorkerPool::new("pool-test", 0);
        let ran2 = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran2);
        pool.spawn(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(ran2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_the_last_handle_inside_a_task_returns() {
        let pool = Arc::new(WorkerPool::new("pool-self", 2));
        let handle = Arc::clone(&pool);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        pool.spawn(move || {
            // Wait until the test thread has let go of its handle, so
            // this drop is the last one and runs `Drop` on this worker.
            go_rx.recv().unwrap();
            drop(handle);
            done_tx.send(()).unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("dropping the pool from its own worker must not join that worker");
    }
}
