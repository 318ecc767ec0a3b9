//! The per-thread job context: one `Copy` record in one thread-local slot.
//!
//! Three facts about the job a thread is working on must be visible
//! several crates below where they were set, without threading them
//! through every signature: the **trace id** its spans and counters are
//! attributed to ([`crate::trace_scope`]), the **pipeline stage** its
//! allocations bill to (`ilt_prof::stage_scope`) and the **deadline** its
//! solver loops honour ([`crate::deadline::scope`]). They are the fields
//! of one [`Context`], kept in the crate at the bottom of the dependency
//! graph; those functions are [`scope`]s of one field each, so scopes of
//! different fields nest and unwind independently. The one worker pool,
//! `ilt_tile::TileExecutor::run`, reads [`current`] where work is
//! submitted and opens a whole-record [`scope`] on each worker. (The
//! adopted span parent is a frame on the thread's open-span stack
//! instead: [`crate::parent_scope`].)
//!
//! The slot is a `const`-initialised `Cell` of a type without a destructor
//! and every access goes through `try_with`, so reading it never allocates
//! and never panics — not even while the thread's other thread-locals are
//! being torn down, which is what lets `ilt-prof`'s tracking allocator read
//! it from inside `alloc`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Instant;

/// What the current thread knows about the job it is working on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Context {
    /// Ambient trace id; `0` means "no trace" (see [`crate::TraceId`]).
    pub trace: u64,
    /// Allocation stage tag (`ilt_prof::Stage`'s index); `0` is untagged.
    pub stage: u8,
    /// The instant the job must give up at, if it has one.
    pub deadline: Option<Instant>,
}

thread_local! {
    static CURRENT: Cell<Context> = const {
        Cell::new(Context {
            trace: 0,
            stage: 0,
            deadline: None,
        })
    };
}

/// The calling thread's context (the default during thread teardown).
#[inline]
pub fn current() -> Context {
    CURRENT.try_with(Cell::get).unwrap_or_default()
}

/// Puts `value` into one part of the calling thread's context and returns
/// what was there (the default during thread teardown, when there is
/// nothing left to edit).
fn swap<T: Copy + Default>(part: fn(&mut Context) -> &mut T, value: T) -> T {
    CURRENT
        .try_with(|cell| {
            let mut context = cell.get();
            let previous = std::mem::replace(part(&mut context), value);
            cell.set(context);
            previous
        })
        .unwrap_or_default()
}

/// Sets one part of the calling thread's context — a field, or with
/// `|c| c` the whole record — to `value` until the returned guard drops,
/// which puts back what that part held before (for a pool thread already
/// inside a job: that job's record, not the default). Scopes nest; the
/// innermost wins.
pub fn scope<T: Copy + Default>(part: fn(&mut Context) -> &mut T, value: T) -> Scope<T> {
    Scope {
        part,
        previous: swap(part, value),
        _not_send: PhantomData,
    }
}

/// Guard restoring the part of the context a [`scope`] replaced.
#[derive(Debug)]
#[must_use = "the previous value is restored when the scope guard drops"]
pub struct Scope<T: Copy + Default> {
    part: fn(&mut Context) -> &mut T,
    previous: T,
    /// Must drop on the installing thread (thread-local slot).
    _not_send: PhantomData<*const ()>,
}

impl<T: Copy + Default> Drop for Scope<T> {
    fn drop(&mut self) {
        swap(self.part, self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_whole_record_scope_restores_the_previous_record_not_the_default() {
        let outer = Context {
            trace: 7,
            stage: 3,
            deadline: Some(Instant::now()),
        };
        let inner = Context {
            trace: 9,
            ..Context::default()
        };
        assert_eq!(current(), Context::default());
        {
            let _outer = scope(|c| c, outer);
            assert_eq!(current(), outer);
            {
                let _inner = scope(|c| c, inner);
                assert_eq!(current(), inner);
            }
            assert_eq!(current(), outer);
        }
        assert_eq!(current(), Context::default());
    }

    #[test]
    fn contexts_are_thread_local() {
        let _guard = scope(|c| &mut c.trace, 11);
        std::thread::spawn(|| assert_eq!(current(), Context::default()))
            .join()
            .unwrap();
        assert_eq!(current().trace, 11);
    }
}
