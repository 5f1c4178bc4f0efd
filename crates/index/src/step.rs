//! Resumable-operation protocol shared by all index state machines.

/// Outcome of polling an operation state machine once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step<T> {
    /// Progress was made; the caller may poll again immediately (e.g. after
    /// an optimistic restart) or interleave other work first (after a
    /// prefetch was issued — the paper's coroutine switch point).
    Ready,
    /// The operation is waiting on a lock held by another simulated thread;
    /// the caller must end its engine step and re-poll on a later step,
    /// otherwise the holder can never run and release it.
    Blocked,
    /// The operation finished with this result.
    Done(T),
}

impl<T> Step<T> {
    /// Whether this is [`Step::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, Step::Done(_))
    }

    /// Maps the completion value.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Step<U> {
        match self {
            Step::Ready => Step::Ready,
            Step::Blocked => Step::Blocked,
            Step::Done(v) => Step::Done(f(v)),
        }
    }
}

#[cfg(test)]
impl<T> Step<T> {
    /// Returns the result if complete.
    pub(crate) fn into_done(self) -> Option<T> {
        match self {
            Step::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is [`Step::Blocked`].
    pub(crate) fn is_blocked(&self) -> bool {
        matches!(self, Step::Blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s: Step<u32> = Step::Done(7);
        assert!(s.is_done());
        assert_eq!(s.into_done(), Some(7));
        assert!(Step::<u32>::Blocked.is_blocked());
        assert_eq!(Step::<u32>::Ready.into_done(), None);
        assert_eq!(Step::Done(2).map(|v: u32| v * 2), Step::Done(4));
        assert_eq!(Step::<u32>::Blocked.map(|v| v), Step::Blocked);
    }
}
