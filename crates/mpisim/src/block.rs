//! What a collective moves: the values themselves on a live run, bare
//! element counts on a replay.
//!
//! Virtual time is priced from message counts and lengths, never from
//! values, so each collective is written once, generic over [`Block`].
//! A live run passes `Vec<f64>`; [`Comm::replay`](crate::Comm::replay)
//! passes [`Len`]. Both walk the same message schedule by
//! construction, and the replay copies, sums and allocates nothing.

use cpc_cluster::{MsgClass, OpShape, RankCtx, SendOutcome};
use std::ops::Range;

/// A contiguous run of `f64` elements as a collective sees it.
pub(crate) trait Block: Clone + Default {
    /// Number of elements.
    fn len(&self) -> usize;

    /// A copy of the elements in `range`.
    fn sub(&self, range: Range<usize>) -> Self;

    /// Adds `other` elementwise into the elements in `range`.
    ///
    /// # Panics
    /// With "reduction length mismatch" unless `other` is exactly as
    /// long as `range`.
    fn add_into(&mut self, range: Range<usize>, other: &Self);

    /// Overwrites the elements in `range` with `other`.
    ///
    /// # Panics
    /// Unless `other` is exactly as long as `range`.
    fn copy_into(&mut self, range: Range<usize>, other: &Self);

    /// Sends the block (see [`RankCtx::send`]).
    fn send(
        self,
        ctx: &mut RankCtx,
        dst: usize,
        tag: u64,
        class: MsgClass,
        shape: OpShape,
    ) -> SendOutcome;

    /// Receives a block (see [`RankCtx::recv`]).
    fn recv(ctx: &mut RankCtx, src: usize, tag: u64) -> Self;
}

impl Block for Vec<f64> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn sub(&self, range: Range<usize>) -> Self {
        self[range].to_vec()
    }

    fn add_into(&mut self, range: Range<usize>, other: &Self) {
        let acc = &mut self[range];
        assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a += b;
        }
    }

    fn copy_into(&mut self, range: Range<usize>, other: &Self) {
        self[range].copy_from_slice(other);
    }

    fn send(
        self,
        ctx: &mut RankCtx,
        dst: usize,
        tag: u64,
        class: MsgClass,
        shape: OpShape,
    ) -> SendOutcome {
        ctx.send(dst, tag, self, class, shape)
    }

    fn recv(ctx: &mut RankCtx, src: usize, tag: u64) -> Self {
        ctx.recv(src, tag).data
    }
}

/// A block that carries its length and no values (see
/// [`RankCtx::send_len`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Len(pub(crate) usize);

impl Len {
    /// The length of `range`, which must lie inside the block, as
    /// slicing a `Vec` of this length would demand.
    fn span(&self, range: Range<usize>) -> usize {
        assert!(
            range.start <= range.end && range.end <= self.0,
            "range {range:?} out of a block of {} elements",
            self.0
        );
        range.len()
    }
}

impl Block for Len {
    fn len(&self) -> usize {
        self.0
    }

    fn sub(&self, range: Range<usize>) -> Self {
        Len(self.span(range))
    }

    fn add_into(&mut self, range: Range<usize>, other: &Self) {
        assert_eq!(self.span(range), other.0, "reduction length mismatch");
    }

    fn copy_into(&mut self, range: Range<usize>, other: &Self) {
        assert_eq!(self.span(range), other.0, "copy length mismatch");
    }

    fn send(
        self,
        ctx: &mut RankCtx,
        dst: usize,
        tag: u64,
        class: MsgClass,
        shape: OpShape,
    ) -> SendOutcome {
        ctx.send_len(dst, tag, self.0, class, shape)
    }

    fn recv(ctx: &mut RankCtx, src: usize, tag: u64) -> Self {
        Len(ctx.recv(src, tag).len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A length-only block checks ranges and lengths as the `Vec` it
    /// stands for does.
    #[test]
    fn a_length_only_block_tracks_the_vec_it_stands_for() {
        let v = vec![1.0; 7];
        let n = Len(7);
        for range in [0..0, 0..7, 2..5, 6..7] {
            assert_eq!(n.sub(range.clone()).len(), v.sub(range.clone()).len());
            let part = Len(range.len());
            Len(7).add_into(range.clone(), &part);
            Len(7).copy_into(range, &part);
        }
        let mismatch = std::panic::catch_unwind(|| Len(7).add_into(2..5, &Len(2)));
        let why = mismatch.expect_err("a short block must not add");
        assert!(why
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("reduction length mismatch")));
        assert!(std::panic::catch_unwind(|| Len(7).sub(5..8)).is_err());
        assert!(std::panic::catch_unwind(|| Len(7).copy_into(0..2, &Len(3))).is_err());
    }
}
