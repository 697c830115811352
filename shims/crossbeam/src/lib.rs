//! Minimal `crossbeam` facade for offline builds.
//!
//! Only [`thread::scope`] is provided: scoped threads with the crossbeam
//! calling convention (`scope` returns `Result`, spawned closures receive
//! the scope), implemented over `std::thread::scope`.

pub mod thread {
    //! Scoped threads.

    use std::any::Any;

    /// A scope handle; spawned closures receive `&Scope` so they can spawn
    /// further threads.
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a scoped thread.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let me = *self;
            ScopedJoinHandle(self.inner.spawn(move || f(&me)))
        }
    }

    /// Run `f` with a scope in which borrowing, scoped threads can be
    /// spawned; all are joined before `scope` returns. Unjoined-thread
    /// panics surface as `Err`, matching crossbeam's contract (std's
    /// scope would re-panic; callers here always join explicitly).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_and_returns() {
        let counter = AtomicUsize::new(0);
        let out = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let counter = &counter;
                    s.spawn(move |_| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        i * 2
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        let out =
            thread::scope(|s| s.spawn(|inner| inner.spawn(|_| 7).join().unwrap()).join().unwrap())
                .unwrap();
        assert_eq!(out, 7);
    }
}
