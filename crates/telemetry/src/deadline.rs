//! Ambient per-thread deadlines.
//!
//! A job deadline set at the serve layer must be visible inside the solver's
//! innermost iteration loop, several crates below, without threading an
//! `Option<Instant>` through every signature. The deadline is a field of the
//! thread's one [`crate::context`] record, beside the trace id and
//! the profiling stage; callers set it with an RAII [`scope`], and the tile
//! executor re-installs the submitting thread's whole record on its worker
//! threads, so tile jobs observe the job deadline no matter which thread
//! runs them.
//!
//! Checks are cheap (`Instant::now()` against one thread-local read), so
//! solver loops can afford one per iteration.

use std::time::Instant;

use crate::context;

/// Restores the previous deadline when dropped.
pub type DeadlineScope = context::Scope<Option<Instant>>;

/// Sets the current thread's deadline (or clears it with `None`) until the
/// returned guard drops. Scopes nest; the innermost wins.
pub fn scope(deadline: Option<Instant>) -> DeadlineScope {
    context::scope(|c| &mut c.deadline, deadline)
}

/// The deadline currently in scope on this thread, if any.
#[inline]
pub fn current() -> Option<Instant> {
    context::current().deadline
}

/// Whether the current deadline (if any) has passed.
#[inline]
pub fn exceeded() -> bool {
    match current() {
        Some(deadline) => Instant::now() >= deadline,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_deadline_by_default() {
        assert_eq!(current(), None);
        assert!(!exceeded());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let far = Instant::now() + Duration::from_secs(60);
        let near = Instant::now() + Duration::from_secs(1);
        {
            let _outer = scope(Some(far));
            assert_eq!(current(), Some(far));
            {
                let _inner = scope(Some(near));
                assert_eq!(current(), Some(near));
                {
                    let _cleared = scope(None);
                    assert_eq!(current(), None);
                }
                assert_eq!(current(), Some(near));
            }
            assert_eq!(current(), Some(far));
            assert!(!exceeded());
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn expired_deadline_is_exceeded() {
        let past = Instant::now() - Duration::from_millis(1);
        let _g = scope(Some(past));
        assert!(exceeded());
    }

    #[test]
    fn deadlines_are_thread_local() {
        let soon = Instant::now() + Duration::from_secs(5);
        let _g = scope(Some(soon));
        std::thread::spawn(|| {
            assert_eq!(current(), None);
        })
        .join()
        .unwrap();
        assert_eq!(current(), Some(soon));
    }
}
