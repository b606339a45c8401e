"""Vectorised conflict-resolution kernels (the engine's fast path).

The reference path resolves every speculative batch with a per-task
Python walk (:mod:`repro.runtime.conflict`).  That walk is semantically
the greedy maximal-independent-set construction of §2.1 — and greedy MIS
over a *frozen* adjacency structure is exactly the kind of irregular
computation that Atos/GRAPHOPT-style batched array formulations turn into
a handful of NumPy segment operations.

The kernels below all reproduce the reference semantics **bit for bit**
(the differential suite in ``tests/runtime`` enforces this):

* :func:`greedy_commit_mask_batch` — ``R`` independent prefixes over one
  CSR graph at once: walking each prefix in commit order, a slot commits
  iff no *earlier committed* slot is a graph neighbour.  The Monte-Carlo
  estimators in :mod:`repro.model` push hundreds of replications through
  a single fixed-point iteration.
* :func:`greedy_commit_mask_from_slots` — the engine's hot path: the
  caller pre-projects its batch onto commit slots and hands over only
  the conflicting pairs, skipping all per-call graph indexing.
* :func:`csr_conflict_pairs` — that projection: one CSR neighbour gather
  over the batch's own rows, O(Σ deg(batch)) whatever the graph's size.
* :func:`csr_greedy_commit_mask` — scatter + gather + kernel in one call:
  the explicit-graph gather path.
* :func:`csr_two_phase_commit_mask` — the same gather split by owning
  shard: the sharded commit order's local greedy and halo exchange.
* :func:`sample_prefix_draws` — the selection-side kernel: the bounded
  draws of the m-out-of-n swap-removal sampler
  (:class:`~repro.runtime.workset.RandomWorkset`'s ``π_m`` prefix) as a
  single vectorised call, bit-identical to the sequential scalar loop.
* :func:`scalar_prefix_draws` — the same draws for a handful of tasks,
  computed in Python from the generator's raw 32-bit stream: NumPy's own
  bounded-integer algorithm without a Python-to-NumPy call per draw.
* :func:`sample_choice_rows` — the regenerating workload's attachment
  picks: ``rows`` sequential no-replacement ``Generator.choice`` calls
  from one ``integers`` call and a vectorised Floyd pass, bit-identical
  values and generator state.
* :func:`sample_window_draws` — the bounded-window variant backing the
  relaxed/async commit-order policies: draw ``i`` is uniform over the
  first ``min(window, n - i)`` remaining entries, degenerating to
  :func:`sample_prefix_draws` when the window covers the whole pool.

The commit kernels resolve fates in *rounds* of pure array arithmetic: a
slot aborts as soon as an earlier neighbour is known to commit, and
commits once every earlier neighbour is known not to. The expected
number of rounds is the longest chain of strictly decreasing commit
positions (O(log m) on random orders), and each round is O(edges) NumPy
work.

Kernels validate only what they need (shape/range/duplicates) and raise
:class:`ValueError`; callers translate into their domain error types.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "greedy_commit_mask_batch",
    "greedy_commit_mask_from_slots",
    "csr_conflict_pairs",
    "csr_greedy_commit_mask",
    "csr_two_phase_commit_mask",
    "sample_prefix_draws",
    "scalar_prefix_draws",
    "sample_choice_rows",
    "sample_window_draws",
]


_active_profiler = None


def _profiler():
    """The active span profiler, or ``None``.

    ``repro.obs`` transitively pulls in the control package, so importing
    it at module top would close the runtime<->control cycle; the lookup
    is resolved on the first kernel call instead and kept.
    """
    global _active_profiler
    if _active_profiler is None:
        from repro.obs.spans import active_profiler

        _active_profiler = active_profiler
    return _active_profiler()


def _timed(span_name: str):
    """Attribute a kernel's run time to *span_name* in the active profiler.

    When no profiler is active the wrapper costs two function calls and
    one ``None`` test per kernel invocation.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prof = _profiler()
            if prof is None:
                return fn(*args, **kwargs)
            with prof.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten ``[starts[i], starts[i]+counts[i])`` ranges into one index array."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # element k of segment i sits at flat offset ends[i]-counts[i]+k
    flat = np.repeat(starts - (ends - counts), counts)
    flat += np.arange(total, dtype=np.int64)
    return flat


def _segment_sum(values: np.ndarray, seg_ptr: np.ndarray) -> np.ndarray:
    """Sum *values* over segments delimited by *seg_ptr* (len = nseg+1)."""
    csum = np.concatenate(([0], np.cumsum(values)))
    return csum[seg_ptr[1:]] - csum[seg_ptr[:-1]]


@_timed("kernel.commit_mask_batch")
def greedy_commit_mask_batch(
    indptr: np.ndarray, indices: np.ndarray, prefixes: np.ndarray
) -> np.ndarray:
    """Resolve ``R`` commit-order prefixes over one CSR graph at once.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency over a dense ``0..n-1`` node universe (e.g. from
        :class:`~repro.graph.ccgraph.GraphSnapshot`).
    prefixes:
        ``int64[R, m]`` node indices, one commit-order prefix per row,
        without duplicates within a row.

    Returns
    -------
    ``bool[R, m]`` — ``True`` where the corresponding slot commits.
    """
    prefixes = np.ascontiguousarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ValueError(f"prefixes must be 2-D, got shape {prefixes.shape}")
    num_reps, m = prefixes.shape
    n = int(indptr.shape[0]) - 1
    if num_reps == 0 or m == 0:
        return np.zeros((num_reps, m), dtype=bool)
    if prefixes.min() < 0 or prefixes.max() >= n:
        raise ValueError("prefix contains indices outside the graph")
    # position of each selected node in its row's commit order; -1 = absent
    pos = np.full((num_reps, n), -1, dtype=np.int64)
    pos[np.arange(num_reps)[:, None], prefixes] = np.arange(m, dtype=np.int64)
    if int(np.count_nonzero(pos >= 0)) != num_reps * m:
        raise ValueError("duplicate node in commit order")

    # Earlier-committed-neighbour edges, over all rows at once.  Slots are
    # globally numbered ``rep * m + slot`` so one fixed point serves all.
    starts = indptr[prefixes].ravel()
    counts = (indptr[prefixes + 1] - indptr[prefixes]).ravel()
    flat = _segment_ranges(starts, counts)
    nbr = indices[flat]
    owner = np.repeat(np.arange(num_reps * m, dtype=np.int64), counts)
    owner_rep = owner // m
    owner_slot = owner - owner_rep * m
    nbr_pos = pos[owner_rep, nbr]
    keep = (nbr_pos >= 0) & (nbr_pos < owner_slot)
    own_global = owner[keep]
    nbr_global = owner_rep[keep] * m + nbr_pos[keep]

    total = num_reps * m
    state = np.zeros(total, dtype=np.int8)  # 0 undecided, 1 committed, 2 aborted
    order = np.argsort(own_global, kind="stable")
    nbr_sorted = nbr_global[order]
    seg_counts = np.bincount(own_global, minlength=total)
    seg_ptr = np.concatenate(([0], np.cumsum(seg_counts)))

    undecided = np.ones(total, dtype=bool)
    no_earlier = seg_counts == 0
    state[no_earlier] = 1
    undecided[no_earlier] = False

    while undecided.any():
        nbr_state = state[nbr_sorted]
        c_committed = _segment_sum((nbr_state == 1).astype(np.int64), seg_ptr)
        c_undecided = _segment_sum((nbr_state == 0).astype(np.int64), seg_ptr)
        newly_aborted = undecided & (c_committed > 0)
        newly_committed = undecided & (c_committed == 0) & (c_undecided == 0)
        if not (newly_aborted.any() or newly_committed.any()):
            raise ValueError("commit fixed-point stalled (cycle of undecided nodes)")
        state[newly_aborted] = 2
        state[newly_committed] = 1
        undecided &= ~(newly_aborted | newly_committed)
    return (state == 1).reshape(num_reps, m)


#: below this many live pairs, array rounds cost more than a Python walk.
#: Medians on gnm_random(10000, 8) batches (2-vCPU Xeon): walking ~36
#: pairs ties one round (31 us either way); at ~62 pairs the rounds win
#: (23 vs 28 us), at ~100 and ~220 pairs by 39 vs 59 and 35 vs 91 us
_SEQUENTIAL_TAIL = 48

#: below this batch size the per-task set walk resolves an explicit-graph
#: batch faster than gather + kernel (gnm_random(10000, 8): walk 33/76/186 us
#: vs gather 61/72/94 us at m = 64/128/256)
GATHER_MIN_BATCH = 128


def _finish_sequentially(
    state: np.ndarray, own: np.ndarray, nbr: np.ndarray
) -> np.ndarray:
    """Resolve the last few undecided slots with a direct greedy walk.

    The fixed point's undecided set decays geometrically, so its final
    rounds each pay full NumPy call overhead to decide a handful of
    slots; once few pairs remain, one pass in slot order is cheaper.
    Touches only the undecided subset — no O(m) list conversions.
    """
    live = np.zeros(state.shape[0], dtype=bool)
    live[own] = True
    state[(state == 0) & ~live] = 1  # no live conflicts left: commits
    fate: dict[int, int] = {}
    # walk pairs grouped by ascending owner, so every earlier slot's fate
    # is settled before its own pairs are inspected; ``sb`` is the
    # blocker's fate on tail entry — 0 means it is itself a (smaller)
    # tail slot, already walked and recorded in ``fate``
    for o, b, sb in sorted(zip(own.tolist(), nbr.tolist(), state[nbr].tolist())):
        if fate.get(o) == 2:
            continue
        fate[o] = 2 if (sb == 1 or (sb == 0 and fate[b] == 1)) else 1
    if fate:
        state[np.fromiter(fate.keys(), np.int64, count=len(fate))] = np.fromiter(
            fate.values(), state.dtype, count=len(fate)
        )
    return state == 1


@_timed("kernel.commit_mask_from_slots")
def greedy_commit_mask_from_slots(
    own_slot: np.ndarray, nbr_slot: np.ndarray, m: int, *, checked: bool = True
) -> np.ndarray:
    """Greedy commit over pre-projected conflict pairs in slot space.

    The engine's hot path: the caller has already mapped its batch onto
    commit slots ``0..m-1`` and extracted the conflicting pairs, so this
    kernel skips all graph indexing.  Each pair says slot ``own_slot[k]``
    conflicts with the strictly earlier slot ``nbr_slot[k]``.

    Instead of re-scanning every edge per round (as the batched kernel
    must), the active pair list shrinks as fates settle: pairs whose
    owner decided — or whose earlier slot aborted and so can never block
    — are shed each round, giving geometrically decaying work per round.

    Returns ``bool[m]`` — ``True`` where the slot commits, i.e. no
    earlier slot it conflicts with committed.

    ``checked=False`` skips input validation for callers whose pairs are
    correct by construction (the engine projects them from a scatter of
    unique batch slots, so ``0 <= nbr < own < m`` always holds there).
    """
    own = np.ascontiguousarray(own_slot, dtype=np.int64)
    nbr = np.ascontiguousarray(nbr_slot, dtype=np.int64)
    if checked:
        if own.shape != nbr.shape or own.ndim != 1:
            raise ValueError(
                f"conflict pair arrays must be 1-D and equal length, "
                f"got {own.shape} vs {nbr.shape}"
            )
        if m < 0:
            raise ValueError(f"slot count must be >= 0, got {m}")
        if own.size and m and (
            own.min() < 0 or own.max() >= m or nbr.min() < 0 or (nbr >= own).any()
        ):
            raise ValueError("conflict pair outside 0 <= nbr < own < m")
    if m == 0:
        if own.size:
            raise ValueError("conflict pairs given for an empty slot range")
        return np.zeros(0, dtype=bool)

    # int64 state keeps every gather/add below upcast-free
    state = np.zeros(m, dtype=np.int64)  # 0 undecided, 1 committed, 2 aborted
    # round 1, specialised: nothing is decided yet, so a slot commits iff
    # it owns no pairs at all (every pair it owns is an undecided wait)
    state[np.bincount(own, minlength=m) == 0] = 1
    own2 = own * 2  # fused bincount codes: 2*own + state of the earlier slot
    while own.size:
        if own.size <= _SEQUENTIAL_TAIL:
            return _finish_sequentially(state, own, nbr)
        # one bincount counts waiting (code +0) and blocking (+1) pairs
        # per owner at once; the shed below guarantees no live pair has an
        # aborted earlier slot at round top, so states here are 0/1 only
        counts = np.bincount(own2 + state[nbr], minlength=2 * m).reshape(m, 2)
        has_waiting = counts[:, 0] > 0
        has_blocked = counts[:, 1] > 0
        undecided = state == 0
        abort_now = undecided & has_blocked
        commit_now = undecided & ~has_blocked & ~has_waiting
        if not (abort_now.any() or commit_now.any()):
            # unreachable for valid input (nbr < own forces progress)
            raise ValueError("commit fixed-point stalled (cycle of undecided slots)")
        state[abort_now] = 2
        state[commit_now] = 1
        # shed decided owners and never-blocking (aborted-earlier) pairs;
        # pairs whose earlier slot committed stay one round to seal fates
        alive = np.flatnonzero((state[own] == 0) & (state[nbr] != 2))
        own = own[alive]
        nbr = nbr[alive]
        own2 = own2[alive]
    state[state == 0] = 1  # every conflict decided non-committed
    return state == 1


@_timed("kernel.csr_conflict_pairs")
def csr_conflict_pairs(
    indptr: np.ndarray, indices: np.ndarray, idx: np.ndarray, pos: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Conflicting slot pairs of one batch, gathered from its own CSR rows.

    ``idx`` is ``int64[m]`` CSR row indices in commit order, without
    duplicates; ``pos`` is an ``int64[n]`` scratch array the caller keeps
    at ``-1`` everywhere except ``pos[idx] = arange(m)``.  Returns
    ``(own_slot, nbr_slot)`` with ``0 <= nbr_slot < own_slot < m``, one
    pair per graph edge inside the batch — exactly the input
    :func:`greedy_commit_mask_from_slots` takes.  Work is
    O(Σ deg(batch)): rows outside the batch are never read.
    """
    starts = indptr[idx]
    counts = indptr[idx + 1] - starts
    nbr = pos[indices[_segment_ranges(starts, counts)]]
    own = np.repeat(np.arange(idx.shape[0], dtype=np.int64), counts)
    # 0 <= nbr < own in one comparison: as uint64, -1 exceeds every slot
    keep = np.flatnonzero(nbr.view(np.uint64) < own.view(np.uint64))
    return own[keep], nbr[keep]


def _batch_conflict_pairs(
    indptr: np.ndarray, indices: np.ndarray, idx: np.ndarray, pos: np.ndarray
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Scatter ``pos[idx] = arange(m)``, gather the pairs, reset ``pos``.

    ``None`` when ``idx`` repeats a row; ``pos`` is ``-1`` everywhere on
    return either way, also when the gather raises.
    """
    slots = np.arange(idx.shape[0], dtype=np.int64)
    pos[idx] = slots
    try:
        if not np.array_equal(pos[idx], slots):
            return None
        return csr_conflict_pairs(indptr, indices, idx, pos)
    finally:
        pos[idx] = -1


def csr_greedy_commit_mask(
    indptr: np.ndarray, indices: np.ndarray, idx: np.ndarray, pos: np.ndarray
) -> "np.ndarray | None":
    """Greedy commit mask of one batch over a CSR: scatter, gather, resolve.

    ``idx`` is ``int64[m]`` CSR rows in commit order, all ``< len(pos)``;
    ``pos`` is the caller-kept ``int64`` scratch array, ``-1`` everywhere
    on entry and again on return.  Returns ``bool[m]``, or ``None`` when
    ``idx`` repeats a row (an error or a reference-path case: the
    caller's call).
    """
    pairs = _batch_conflict_pairs(indptr, indices, idx, pos)
    if pairs is None:
        return None
    return greedy_commit_mask_from_slots(*pairs, idx.shape[0], checked=False)


def csr_two_phase_commit_mask(
    indptr: np.ndarray,
    indices: np.ndarray,
    idx: np.ndarray,
    pos: np.ndarray,
    shard_by_pos: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Two-phase (local greedy + halo exchange) masks of one sharded batch.

    Arguments as for :func:`csr_greedy_commit_mask`, plus the owning
    shard of every batch slot.  One gather yields the batch's conflict
    pairs; phase 1 resolves the pairs inside a shard (shards never meet
    through those, so one call is every shard's local greedy at once),
    phase 2 the cut pairs between two locally committed slots.  Returns
    ``(final, local)`` equal to
    :func:`repro.graph.partition.two_phase_commit_mask`, or ``None``
    when ``idx`` repeats a row.
    """
    pairs = _batch_conflict_pairs(indptr, indices, idx, pos)
    if pairs is None:
        return None
    own, nbr = pairs
    m = idx.shape[0]
    intra = shard_by_pos[own] == shard_by_pos[nbr]
    local = greedy_commit_mask_from_slots(own[intra], nbr[intra], m, checked=False)
    # slots that lost phase 1 own no pair here, so the kernel lets them
    # through and the final ``&`` drops them again
    cut = ~intra & local[own] & local[nbr]
    final = greedy_commit_mask_from_slots(own[cut], nbr[cut], m, checked=False)
    final &= local
    return final, local


@_timed("kernel.sample_prefix")
def sample_prefix_draws(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorised bounded draws of the m-out-of-n swap-removal sampler.

    :class:`~repro.runtime.workset.RandomWorkset` draws its batch with a
    partial Fisher–Yates walk: at step ``i`` it draws ``j ~ U[0, n-i)``,
    swaps slot ``j`` with the current tail, and pops the tail.  This
    kernel produces exactly those ``k`` draws — ``draws[i] ~ U[0, n-i)``
    — in one call, by handing NumPy the whole descending bound vector
    ``[n, n-1, ..., n-k+1]`` at once.

    **Bit-parity contract**: ``Generator.integers`` with a broadcast
    array of bounds consumes the bit stream exactly as ``k`` sequential
    scalar ``rng.integers(0, n-i)`` calls do — same values *and* same
    generator state afterwards — so a caller replaying these draws
    through the swap loop reproduces the reference sampler's batches and
    RNG trajectory exactly (the selection distribution tests enforce
    both properties).

    Returns ``int64[k]``; ``k == 0`` returns an empty array without
    touching the generator.
    """
    if k < 0:
        raise ValueError(f"cannot draw {k} samples")
    if k > n:
        raise ValueError(f"cannot draw {k} samples from a pool of {n}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    highs = np.arange(n, n - k, -1, dtype=np.int64)
    return rng.integers(0, highs, dtype=np.int64)


#: the first bound that leaves NumPy's 32-bit bounded draw
_UINT32_BOUND = 1 << 32


def scalar_prefix_draws(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """The draws of :func:`sample_prefix_draws`, one at a time in Python.

    ``Generator.integers(0, b)`` with ``b < 2**32`` is Lemire's
    multiply-shift method over the bit generator's 32-bit stream (numpy's
    ``buffered_bounded_lemire_uint32``): ``x = next32() * b``, rejected
    while ``x mod 2**32 < (2**32 - b) % b``, answer ``x >> 32``.  This
    helper runs that algorithm on the words read through the generator's
    public ``ctypes.next_uint32`` (a prototype NumPy declares with its
    argument and return types, bound to the state the generator owns),
    so a draw costs one foreign call instead of one ``integers`` call,
    about a third as much.

    **Bit-parity contract**: the same as :func:`sample_prefix_draws` —
    the same values *and* the same generator state afterwards as ``k``
    sequential ``rng.integers(0, n - i)`` calls.  A bound of 1 yields 0
    and consumes nothing, as NumPy does; bounds of ``2**32`` or more go
    to NumPy itself.  The generator's lock is held around the draws, as
    ``integers`` holds it around its own.
    """
    if k < 0:
        raise ValueError(f"cannot draw {k} samples")
    if k > n:
        raise ValueError(f"cannot draw {k} samples from a pool of {n}")
    if n >= _UINT32_BOUND:
        return sample_prefix_draws(n, k, rng).tolist()
    bitgen = rng.bit_generator
    raw = bitgen.ctypes
    next32, state = raw.next_uint32, raw.state
    draws = []
    with bitgen.lock:
        for bound in range(n, n - k, -1):
            if bound == 1:
                draws.append(0)
                continue
            x = next32(state) * bound
            low = x & 0xFFFFFFFF
            if low < bound:  # only then can it fall below the threshold
                threshold = (_UINT32_BOUND - bound) % bound
                while low < threshold:
                    x = next32(state) * bound
                    low = x & 0xFFFFFFFF
            draws.append(x >> 32)
    return draws


#: the vectorised pass of :func:`sample_choice_rows` runs for
#: ``_CHOICE_MIN_ROWS + k // 4`` rows or more, up to ``_CHOICE_MAX_COLUMNS``
#: columns; anything smaller or wider stays on ``choice``.  Ratios of its
#: time to the ``choice`` loop's (pool 2999, NumPy 2.4, 2-vCPU Xeon): k = 8
#: 0.91 at 5 rows, 0.57 at 8, 0.09 at 96; k = 32 0.83 at 12 rows, 0.32 at
#: 96; k = 64 above 1 below 48 rows and never below 0.85
_CHOICE_MIN_ROWS = 5
_CHOICE_MAX_COLUMNS = 32

#: above this pool size NumPy's ``choice`` tail-shuffles the whole pool
#: once ``k > pool // 50`` instead of running Floyd's algorithm
_CHOICE_FLOYD_POOL = 10000


def _choice_rows_vectorised(pool: int, k: int, rows: int) -> bool:
    """Whether :func:`sample_choice_rows` draws these rows in one call."""
    return (
        k <= _CHOICE_MAX_COLUMNS
        and rows >= _CHOICE_MIN_ROWS + k // 4
        and pool < _UINT32_BOUND
        and not (pool > _CHOICE_FLOYD_POOL and k > pool // 50)
    )


def sample_choice_rows(
    pool: int, k: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """``rows`` sequential ``rng.choice(pool, size=k, replace=False)`` calls.

    NumPy's no-replacement ``choice`` is Floyd's algorithm: for
    ``t = 0 .. k-1`` it draws ``v ~ U[0, pool-k+t]`` and keeps ``v``
    unless the row already holds it, in which case it keeps
    ``pool-k+t``; then it shuffles the row, swapping column ``i`` with a
    draw ``U[0, i]`` for ``i = k-1 .. 1``.  Every draw is the bounded
    integer ``integers`` makes, so the ``rows * (2k - 1)`` draws of all
    rows come from one ``Generator.integers`` call over the tiled bound
    vector ``[pool-k+1 .. pool, k .. 2]``.  Floyd's pass keeps every row
    whose raw draws are distinct and replays the rest in Python (a
    repeat has odds of about ``k**2 / (2 * pool)`` per row); the shuffle
    runs column by column over all rows at once.

    **Bit-parity contract**: as with :func:`sample_prefix_draws` — the
    same values *and* the same generator state afterwards as the
    sequential calls.  Few rows, more than ``_CHOICE_MAX_COLUMNS``
    columns, NumPy's tail-shuffle regime and pools of ``2**32`` or more
    make those calls themselves (:func:`_choice_rows_vectorised`).

    Returns ``int64[rows, k]``.
    """
    if k < 0:
        raise ValueError(f"cannot draw {k} samples")
    if k > pool:
        raise ValueError(f"cannot draw {k} samples from a pool of {pool}")
    if not _choice_rows_vectorised(pool, k, rows):
        out = np.empty((rows, k), dtype=np.int64)
        for row in out:
            row[:] = rng.choice(pool, size=k, replace=False)
        return out
    if k == 0:
        return np.empty((rows, 0), dtype=np.int64)
    bounds = np.concatenate(
        (
            np.arange(pool - k + 1, pool + 1, dtype=np.int64),
            np.arange(k, 1, -1, dtype=np.int64),
        )
    )
    draws = rng.integers(0, np.broadcast_to(bounds, (rows, 2 * k - 1)), dtype=np.int64)
    picks = draws[:, :k]
    ordered = np.sort(picks, axis=1)
    for r in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)).tolist():
        row = picks[r].tolist()
        taken = set()
        for t, value in enumerate(row):
            if value in taken:
                value = row[t] = pool - k + t
            taken.add(value)
        picks[r] = row
    # column-major, so column i of every row is one contiguous slice
    columns = draws.T.copy()
    flat = columns.reshape(-1)
    swap_with = columns[k:] * rows + np.arange(rows, dtype=np.int64)
    for i in range(k - 1, 0, -1):
        column = flat[i * rows : (i + 1) * rows]
        other = swap_with[k - 1 - i]
        held = column.copy()
        column[:] = flat[other]
        flat[other] = held
    return columns[:k].T


@_timed("kernel.sample_window")
def sample_window_draws(
    n: int, k: int, window: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorised bounded draws of the k-of-top windowed sampler.

    The relaxed commit-order policies draw each of their ``k`` batch
    entries uniformly from the first ``window`` remaining entries of an
    ordered pool (priority order for :class:`RelaxedCommitOrder`, arrival
    order for :class:`AsyncCommitOrder` — both in
    :mod:`repro.runtime.policies`).  Draw ``i`` is therefore uniform over
    ``[0, min(window, n - i))`` — the window, clipped once the pool runs
    low — and this kernel produces all ``k`` draws in one
    ``Generator.integers`` call over the clipped bound vector.

    When ``window >= n`` every bound clips to the pool size and the draw
    *is* the uniform ``π_m`` prefix sampler, so the call delegates to
    :func:`sample_prefix_draws` — the bridge behind the theory-conformance
    claim that relaxation depth ``k >= n`` recovers the paper's §2 model.

    **Bit-parity contract**: as with :func:`sample_prefix_draws`, the
    broadcast-bounds call consumes the bit stream exactly as ``k``
    sequential scalar ``rng.integers(0, bound_i)`` calls do, so scalar
    replays of the windowed draw reproduce both the values and the
    generator state.

    Returns ``int64[k]``; ``k == 0`` returns an empty array without
    touching the generator.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window >= n:
        return sample_prefix_draws(n, k, rng)
    if k < 0:
        raise ValueError(f"cannot draw {k} samples")
    if k > n:
        raise ValueError(f"cannot draw {k} samples from a pool of {n}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    highs = np.minimum(window, np.arange(n, n - k, -1, dtype=np.int64))
    return rng.integers(0, highs, dtype=np.int64)
