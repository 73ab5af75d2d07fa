//! Cooperative cancellation for long-running work.
//!
//! The serving layer attaches a per-request deadline (`timeout_ms` in the
//! API) and needs algorithm code — the ACQ candidate walk, the k-core
//! peel, Louvain's local-moving sweeps — to notice expiry *while running*
//! instead of burning a worker to completion. Threading an explicit token
//! through every algorithm signature would churn the whole workspace, so
//! the token rides a thread-local instead:
//!
//! * the request handler builds a [`CancelToken`] and runs the engine call
//!   inside [`scope`];
//! * hot loops call [`cancelled`] every few thousand iterations (a
//!   thread-local read plus, when a deadline is armed, one `Instant::now`)
//!   and bail out early with whatever partial state they have;
//! * the caller that installed the token re-checks it after the algorithm
//!   returns and maps expiry to a typed `deadline_exceeded` error, so a
//!   partial result can never leak to a client or a cache.
//!
//! With no scope installed [`cancelled`] is a thread-local read — the
//! zero-alloc query hot path is unaffected.
//!
//! The thread-local deliberately does **not** propagate into `cx-par`
//! worker threads: checkpoints live in the sequential control loops of
//! each algorithm, which is where wall-clock time accumulates.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply clonable cancellation handle: an optional wall-clock deadline
/// plus a manual flag. The default token
/// ([`CancelToken::none`]) can never cancel and costs nothing to check.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

struct TokenInner {
    deadline: Option<Instant>,
    flag: AtomicBool,
}

impl CancelToken {
    /// A token that never cancels — the default for untimed callers.
    pub fn none() -> Self {
        Self { inner: None }
    }

    /// A token that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            inner: Some(Arc::new(TokenInner {
                deadline: Some(Instant::now() + timeout),
                flag: AtomicBool::new(false),
            })),
        }
    }

    /// A manual token with no deadline: cancels only via [`CancelToken::cancel`].
    pub fn manual() -> Self {
        Self {
            inner: Some(Arc::new(TokenInner { deadline: None, flag: AtomicBool::new(false) })),
        }
    }

    /// Trips the manual flag. No-op on [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Relaxed);
        }
    }

    /// True when the flag is tripped or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Relaxed)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Whether this token can ever cancel (i.e. is not [`CancelToken::none`]).
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "CancelToken::none"),
            Some(i) => f
                .debug_struct("CancelToken")
                .field("deadline", &i.deadline)
                .field("cancelled", &i.flag.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `token` installed as the current thread's task scope.
/// Scopes nest; the innermost wins. The scope is popped on the way out
/// even if `f` panics.
pub fn scope<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    CURRENT.with(|c| {
        c.borrow_mut().push(token.clone());
    });
    let _pop = Pop;
    f()
}

/// True when the innermost installed token has cancelled. Cheap when no
/// scope is installed (one thread-local read), so hot loops can afford a
/// periodic call; loops that bail on `true` must leave only private state
/// behind — the scope owner discards the partial result.
pub fn cancelled() -> bool {
    CURRENT.with(|c| match c.borrow().last() {
        None => false,
        Some(token) => token.is_cancelled(),
    })
}

/// True when any scope is installed on this thread (tests / diagnostics).
pub fn in_scope() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_cancels() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(!t.is_armed());
        assert!(!cancelled());
    }

    #[test]
    fn deadline_token_expires() {
        let t = CancelToken::with_timeout(Duration::from_millis(5));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(10));
        assert!(t.is_cancelled());
    }

    #[test]
    fn manual_cancel_shows_through_clones_and_scope() {
        let t = CancelToken::manual();
        let handle = t.clone();
        scope(&t, || {
            assert!(!cancelled());
            handle.cancel();
            assert!(cancelled());
        });
        assert!(!cancelled(), "scope must pop on exit");
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = CancelToken::manual();
        let inner = CancelToken::manual();
        outer.cancel();
        scope(&outer, || {
            assert!(cancelled());
            scope(&inner, || {
                assert!(!cancelled(), "inner un-cancelled token shadows outer");
            });
            assert!(cancelled());
        });
    }

    #[test]
    fn scope_pops_on_panic() {
        let t = CancelToken::manual();
        t.cancel();
        let r = std::panic::catch_unwind(|| {
            scope(&t, || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(!in_scope(), "panicked scope must still pop");
    }
}
