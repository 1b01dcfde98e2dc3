//! Chunked scalar kernels for the inference hot loops.
//!
//! Three loops dominate inference time once evidence is coalesced and
//! view-local (PRs 3–5): the `flip` sweep over comp→sets→flows CSR
//! walks, the `compute_initial_delta` full sweep, and the greedy
//! argmax over the dense Δ array. Each is fed by the `llf` ladders the
//! [`TermDirectory`](crate::likelihood::TermDirectory) precomputed, so
//! the inner loops are pure index/multiply/add over contiguous `f64`
//! slices — no transcendentals, no branches.
//!
//! # Floating-point behaviour
//!
//! These loops *define* the verdict's floating-point behaviour, so their
//! shape is fixed:
//!
//! * Per-element kernels ([`fabric_delta_sweep`], [`member_delta_sweep`],
//!   [`weighted_table_accumulate`]) use only add/sub/mul/negate, each
//!   IEEE-754 exact. No FMA contraction is ever used — fusing the
//!   multiply and add would change the rounding.
//! * A sweep's lanes are the components of one set, each once, and
//!   every lane of the set goes through the kernel: `delta[lane]` takes
//!   one term per flow, in flow order, so no reassociation occurs
//!   whatever the lane order.
//! * A lane's table index is absolute — the set's neighbour count for
//!   that component (`sets.rs`) — so a component inside the
//!   hypothesis and one outside it read their rung through the same
//!   expression.
//! * The argmax reduction ([`argmax_gain`]) uses a fixed block-of-4
//!   accumulator shape with a fixed pairwise combine and
//!   `if acc > x { acc } else { x }` as its maximum (the *second* operand
//!   wins on ties and NaN), so the outcome on `-0.0`/NaN corners is
//!   deterministic.

/// The single kernel level. Kept only for the benchmark's
/// `core.kernel_dispatch` probe, which reads
/// `KernelDispatch::resolve().level()`; it goes with that probe in the
/// benchmark-only PR (ROADMAP 1(a)). Nothing in the product reads it.
#[derive(Debug, Clone, Copy)]
pub enum KernelDispatch {
    /// The chunked scalar kernels of this module.
    Portable,
}

impl KernelDispatch {
    /// The process's kernel level: always [`KernelDispatch::Portable`].
    pub fn resolve() -> Self {
        KernelDispatch::Portable
    }

    /// Numeric level for the benchmark's probe: always `0`.
    pub fn level(self) -> u8 {
        0
    }
}

/// `a` only when `a > b`: the *second* operand wins on ties (`-0.0` vs
/// `0.0`) and whenever either operand is NaN.
#[inline]
fn maxpd(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Flip-sweep fabric kernel: for each element `i`,
///
/// ```text
/// delta[lanes[i]] += ((tbl[new_nb[i]] - ll_new)
///                   - (tbl[old_nb[i]] - ll_old)) * active
/// ```
///
/// where `tbl` is one flow's term-table segment (`w + 1` entries),
/// `lanes` are the components of the flow's set, `old_nb`/`new_nb` their
/// neighbour counts (the set's failed-path count once the lane's
/// component flips) before and after the flip, and `ll_old`/`ll_new` are
/// the flow's own contribution under the pre-/post-flip hypothesis. This
/// is the Δ-maintenance inner loop of `Engine::flip`.
///
/// Lengths of `old_nb`, `new_nb`, and `lanes` must match; table and lane
/// indices are bounds-checked by the slice accesses.
#[allow(clippy::too_many_arguments)]
pub fn fabric_delta_sweep(
    tbl: &[f64],
    old_nb: &[u32],
    new_nb: &[u32],
    lanes: &[u32],
    active: f64,
    ll_old: f64,
    ll_new: f64,
    delta: &mut [f64],
) {
    let n = lanes.len();
    assert_eq!(old_nb.len(), n, "old_nb/lanes length mismatch");
    assert_eq!(new_nb.len(), n, "new_nb/lanes length mismatch");
    for i in 0..lanes.len() {
        let t_old = tbl[old_nb[i] as usize];
        let t_new = tbl[new_nb[i] as usize];
        delta[lanes[i] as usize] += ((t_new - ll_new) - (t_old - ll_old)) * active;
    }
}

/// Extra-member flip kernel: for each element `i`,
///
/// ```text
/// x = tbl[nb[i]] - ll_active
/// delta[lanes[i]] += x * (if negate { -weight } else { weight })
/// ```
///
/// Used by `flip_extra_for_member` when flipping a component that rides
/// a member's *extras* (host links, NIC-side components): the member's
/// path either starts failing (`negate = true`, the flow's old
/// contribution is retracted) or stops failing (`negate = false`, the
/// new contribution lands); `lanes` are the components of the member's
/// set and `nb` their neighbour counts.
pub fn member_delta_sweep(
    tbl: &[f64],
    nb: &[u32],
    lanes: &[u32],
    weight: f64,
    ll_active: f64,
    negate: bool,
    delta: &mut [f64],
) {
    assert_eq!(nb.len(), lanes.len(), "nb/lanes length mismatch");
    // The sign is folded into the *weight* operand, not applied to `x`:
    // `x * (±weight)` equals `±(x * weight)` bitwise for every finite
    // and infinite input, and when `x` is NaN the multiply propagates
    // `x`'s own bit pattern. Negating `x` itself is not codegen-stable —
    // LLVM may rewrite `(-x) * w` as `x * (-w)` (NaN sign is unspecified
    // in its float semantics), which would make the NaN sign this loop
    // produces depend on the optimizer.
    let w = if negate { -weight } else { weight };
    for i in 0..lanes.len() {
        let x = tbl[nb[i] as usize] - ll_active;
        delta[lanes[i] as usize] += x * w;
    }
}

/// Initial-Δ kernel: for each element `i`,
///
/// ```text
/// sums[i] += tbl[ladder[i]] * weight
/// ```
///
/// `compute_initial_delta` groups a set's components by the ladder rung
/// their neighbour reads and accumulates one weighted `llf` term per
/// distinct rung per flow; `ladder` holds the distinct table indexes
/// and `sums` the per-rung accumulators.
pub fn weighted_table_accumulate(tbl: &[f64], ladder: &[u32], weight: f64, sums: &mut [f64]) {
    assert!(sums.len() >= ladder.len(), "sums shorter than ladder");
    for (i, &r) in ladder.iter().enumerate() {
        sums[i] += tbl[r as usize] * weight;
    }
}

/// Pass 1 of [`argmax_gain`]: maximum of `delta[i] + bias[i]` under the
/// fixed block-of-4 reduction shape.
///
/// Accumulator `j` takes elements with index ≡ `j` (mod 4) in index
/// order; the accumulators combine pairwise `max(max(0,1), max(2,3))`.
fn max_gain(delta: &[f64], bias: &[f64]) -> f64 {
    let n = delta.len();
    let mut acc = [f64::NEG_INFINITY; 4];
    let mut i = 0;
    while i + 4 <= n {
        for (j, a) in acc.iter_mut().enumerate() {
            let x = delta[i + j] + bias[i + j];
            *a = maxpd(*a, x);
        }
        i += 4;
    }
    let mut j = 0;
    while i < n {
        let x = delta[i] + bias[i];
        acc[j] = maxpd(acc[j], x);
        i += 1;
        j += 1;
    }
    maxpd(maxpd(acc[0], acc[1]), maxpd(acc[2], acc[3]))
}

/// Greedy argmax kernel: maximize `delta[i] + bias[i]`, breaking exact
/// ties toward the smallest **global** component id, exactly like the
/// scalar `beats` comparison in `greedy`.
///
/// Returns `(local index, max gain)`, or `None` when the slice is empty
/// or the maximum is NaN (a NaN gain means the likelihood state itself
/// is non-finite; the reduction shape is fixed, so the verdict — stop
/// the scan — is still deterministic).
///
/// Pass 1 reduces to the maximum with the fixed block-of-4 shape; pass 2
/// rescans for elements whose recomputed gain equals the maximum (same
/// add, so the winner always matches) and keeps the smallest global id.
pub fn argmax_gain(delta: &[f64], bias: &[f64], globals: &[u32]) -> Option<(u32, f64)> {
    let n = delta.len();
    assert_eq!(bias.len(), n, "bias/delta length mismatch");
    assert_eq!(globals.len(), n, "globals/delta length mismatch");
    if n == 0 {
        return None;
    }
    let m = max_gain(delta, bias);
    let mut best: Option<(u32, u32)> = None; // (global id, local index)
    for i in 0..n {
        if delta[i] + bias[i] == m {
            let g = globals[i];
            if best.is_none_or(|(bg, _)| g < bg) {
                best = Some((g, i as u32));
            }
        }
    }
    best.map(|(_, local)| (local, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_prefers_smallest_global_on_ties() {
        let delta = [1.0, 3.0, 3.0, 0.5];
        let bias = [0.0; 4];
        // Local 2 has the smaller global id among the tied maxima.
        let globals = [10, 9, 4, 11];
        assert_eq!(argmax_gain(&delta, &bias, &globals), Some((2, 3.0)));
    }

    #[test]
    fn argmax_empty_and_nan() {
        assert_eq!(argmax_gain(&[], &[], &[]), None);
        // The outcome on NaN is fixed by the reduction shape: `maxpd`
        // keeps its second operand on NaN, so a NaN that reaches the
        // final combine as the first operand is dropped ...
        let delta = [1.0, f64::NAN, 2.0];
        assert_eq!(argmax_gain(&delta, &[0.0; 3], &[0, 1, 2]), Some((2, 2.0)));
        // ... and one that reaches it as the second is the maximum: no
        // element compares equal to it and the scan stops.
        let delta = [1.0, 2.0, 3.0, f64::NAN];
        assert_eq!(argmax_gain(&delta, &[0.0; 4], &[0, 1, 2, 3]), None);
    }
}
