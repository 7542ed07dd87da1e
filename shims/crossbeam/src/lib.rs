//! Offline stand-in for `crossbeam`.
//!
//! The build environment cannot reach crates.io, so this shim implements the
//! one piece of crossbeam the workspace relies on, on top of `std`:
//! [`channel`] — multi-producer **multi-consumer** channels (std's `mpsc`
//! receivers cannot be cloned), built from a mutexed ring + condvars, with
//! optional capacity bounds and `recv_timeout`. The serve tier's worker pool
//! runs on them. Scoped threads come from [`std::thread::scope`].

pub mod channel {
    //! Multi-producer multi-consumer FIFO channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        /// Signalled when an item arrives or all senders disconnect.
        readable: Condvar,
        /// Signalled when space frees up or all receivers disconnect.
        writable: Condvar,
        capacity: Option<usize>,
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned when all receivers have been dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when the channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Non-blocking receive failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Bounded-wait receive failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "channel receive timed out"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty, disconnected channel")
                }
            }
        }
    }

    /// Creates a channel with unbounded buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel that holds at most `cap` in-flight items; `send`
    /// blocks while full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until the item is enqueued (or every receiver is gone).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = self
                    .inner
                    .capacity
                    .is_some_and(|cap| state.queue.len() >= cap);
                if !full {
                    state.queue.push_back(value);
                    self.inner.readable.notify_one();
                    return Ok(());
                }
                state = self.inner.writable.wait(state).expect("channel poisoned");
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item arrives or every sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.inner.writable.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.inner.readable.wait(state).expect("channel poisoned");
            }
        }

        /// Returns immediately with the queue head, if any.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            match state.queue.pop_front() {
                Some(v) => {
                    self.inner.writable.notify_one();
                    Ok(v)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for an item.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.inner.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.inner.writable.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .inner
                    .readable
                    .wait_timeout(state, deadline - now)
                    .expect("channel poisoned");
                state = guard;
            }
        }

        /// A blocking iterator that drains the channel until disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel poisoned").senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel poisoned").receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            state.senders -= 1;
            if state.senders == 0 {
                self.inner.readable.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            state.receivers -= 1;
            if state.receivers == 0 {
                self.inner.writable.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn fifo_send_recv() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn mpmc_workers_drain_everything() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: i64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        s.spawn(move || rx.iter().sum::<i64>())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(total, (0..100).sum::<i64>());
        }

        #[test]
        fn recv_timeout_expires() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(20)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn bounded_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || {
                tx.send(2).unwrap();
            });
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            handle.join().unwrap();
        }
    }
}
