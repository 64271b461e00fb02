//! Vendored, offline subset of `crossbeam`: the `channel` module,
//! implemented over `std::sync::mpsc`. Only the MPSC shapes this
//! workspace uses are provided (crossbeam's channels are MPMC; none of
//! the callers clone receivers).

/// Multi-producer single-consumer channels.
pub mod channel {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                tx: Tx::Unbounded(tx),
                id: Arc::new(()),
            },
            Receiver { rx },
        )
    }

    /// Creates a bounded channel: `send` blocks while `cap` values are
    /// in flight (the backpressure point the gateway relies on).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender {
                tx: Tx::Bounded(tx),
                id: Arc::new(()),
            },
            Receiver { rx },
        )
    }

    #[derive(Debug)]
    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Unbounded(tx) => Tx::Unbounded(tx.clone()),
                Tx::Bounded(tx) => Tx::Bounded(tx.clone()),
            }
        }
    }

    /// The sending half; cloneable.
    #[derive(Debug)]
    pub struct Sender<T> {
        tx: Tx<T>,
        /// Shared by every clone of one channel's sender: what
        /// [`Sender::same_channel`] compares.
        id: Arc<()>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                tx: self.tx.clone(),
                id: Arc::clone(&self.id),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a value; blocks while a bounded channel is full; errors
        /// if the receiver is gone.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            match &self.tx {
                Tx::Unbounded(tx) => tx.send(t),
                Tx::Bounded(tx) => tx.send(t),
            }
        }

        /// Non-blocking send; `Full` only ever comes from a bounded
        /// channel.
        pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
            match &self.tx {
                Tx::Unbounded(tx) => tx.send(t).map_err(|e| TrySendError::Disconnected(e.0)),
                Tx::Bounded(tx) => tx.try_send(t),
            }
        }

        /// Whether `self` and `other` send into the same channel.
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.id, &other.id)
        }
    }

    /// The receiving half.
    #[derive(Debug)]
    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value; errors when all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.rx.recv()
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.rx.try_recv()
        }

        /// Receive with a timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.rx.recv_timeout(timeout)
        }

        /// Blocking iterator over received values.
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.rx.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fan_in_across_threads() {
        let (tx, rx) = channel::unbounded();
        std::thread::scope(|s| {
            for k in 0..4 {
                let tx = tx.clone();
                s.spawn(move || tx.send(k).unwrap());
            }
            drop(tx);
            let mut got: Vec<i32> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        let got: Vec<i32> = [rx.recv().unwrap(), rx.recv().unwrap()].to_vec();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn same_channel_tells_clones_from_strangers() {
        let (tx, _rx) = channel::unbounded::<u8>();
        let (other, _orx) = channel::unbounded::<u8>();
        assert!(tx.same_channel(&tx.clone()));
        assert!(!tx.same_channel(&other));
    }
}
