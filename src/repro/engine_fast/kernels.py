"""Batch kernels over identifier arrays (the fast engine's hot math).

The reference engine ranks and selects :class:`NodeDescriptor` objects;
profiling PR 1 showed the per-exchange cost is dominated by exactly two
geometric computations, both of which reduce to pure integer work once
descriptors are stored as parallel id arrays:

* **ring ranking** -- sort a candidate set by ``(ring distance to an
  origin, id)``; used by ``SELECTPEER`` (distance from the node itself)
  and ``CREATEMESSAGE`` (distance from the destination peer);
* **balanced selection** -- the paper's UPDATELEAFSET rule: keep the
  ``c/2`` closest successors and predecessors of an origin, backfilling
  when one side runs short.

Each kernel has two interchangeable implementations: a vectorised
``numpy`` path (uint64 arrays; unsigned arithmetic wraps modulo
``2**64``, which *is* ring arithmetic for 64-bit spaces) and a pure
Python fallback used when numpy is unavailable -- or unconditionally via
``REPRO_FAST_BACKEND=python``.  Both produce **identical** outputs: ring
distances per side are unique (the forward distance determines the id),
so every selection below has exactly one correct answer.  The
differential suite runs both backends against the reference engine.

Arrays only pay for themselves past a size threshold (converting a
50-element set to ``ndarray`` costs more than sorting it); below
:data:`NUMPY_MIN_SIZE` candidates the Python path is used even when
numpy is installed (:data:`NUMPY_MIN_SPLIT` and :data:`NUMPY_MIN_SLOTS`
for the kernels with their own crossovers).
"""

from __future__ import annotations

from heapq import nsmallest
from collections.abc import Iterable, Sequence

from .. import seams
from ..core.idspace import slot_tables
from ..core.leafset import balanced_counts as _balanced_counts
from ..core.leafset import split_balanced_ids

try:  # pragma: no cover - exercised via both backend parametrisations
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "NUMPY_MIN_SIZE",
    "NUMPY_MIN_SPLIT",
    "backend",
    "set_backend",
    "rank_ids",
    "select_balanced",
    "balanced_counts_arrays",
    "select_balanced_arrays",
    "close_and_rest",
    "close_and_rest_arrays",
    "slot_tables",
    "prefix_slots",
    "prefix_slots_arrays",
    "prefix_part",
    "prefix_part_arrays",
    "prefix_part_with_slots",
    "segment_take",
]

#: Candidate-set sizes below which the pure-Python path wins even with
#: numpy available (array round-trip overhead dominates tiny inputs).
#: Measured crossovers on CPython 3.11 / numpy 2.x; the exact values
#: only affect speed, never results.
NUMPY_MIN_SIZE = 24
#: CREATEMESSAGE's close/rest split: the pure-Python leg is a single
#: sort plus one walk, so numpy only pulls ahead on larger unions
#: (measured crossover ~45-55 ids on CPython 3.11 / numpy 2.x).
NUMPY_MIN_SPLIT = 48
#: The slot kernels do an argsort-based group-cap; their crossover is
#: much higher than the pure ranking kernels'.
NUMPY_MIN_SLOTS = 192

#: The session default, captured from the environment once at import;
#: ``set_backend("auto")`` restores *this* (so a test that forces a
#: backend and then resets does not silently undo an operator's
#: ``REPRO_FAST_BACKEND`` pin).
_DEFAULT_BACKEND = seams.enum("REPRO_FAST_BACKEND")
if _DEFAULT_BACKEND == "numpy" and _np is None:
    raise ImportError("REPRO_FAST_BACKEND=numpy but numpy is not installed")
_backend = _DEFAULT_BACKEND


def backend() -> str:
    """The active kernel backend: ``"numpy"`` or ``"python"``."""
    return "numpy" if _np is not None and _backend != "python" else "python"


def set_backend(name: str) -> None:
    """Force a backend at runtime (testing hook).

    ``"auto"`` restores the session default -- the
    ``REPRO_FAST_BACKEND`` pin captured at import time, or the
    size-thresholded preference order when no pin was set.
    """
    global _backend
    if name not in ("auto", "numpy", "python"):
        raise ValueError(f"backend must be auto|numpy|python, got {name!r}")
    if name == "numpy" and _np is None:
        raise ValueError("numpy backend requested but numpy is not installed")
    _backend = _DEFAULT_BACKEND if name == "auto" else name


def _use_numpy(n: int, min_n: int = NUMPY_MIN_SIZE) -> bool:
    if _backend == "python" or _np is None:
        return False
    if _backend == "numpy":
        return True
    return n >= min_n


# ----------------------------------------------------------------------
# Ring ranking
# ----------------------------------------------------------------------


def rank_ids(ids: Sequence[int], origin: int, mask: int) -> list[int]:
    """*ids* sorted by ``(ring distance from origin, id)``.

    *mask* is ``space.size - 1``; distances are computed modulo
    ``mask + 1``.  The id tiebreak makes the order total, so both
    backends agree bit-for-bit.
    """
    n = len(ids)
    if _use_numpy(n) and mask == 0xFFFFFFFFFFFFFFFF:
        arr = _np.fromiter(ids, dtype=_np.uint64, count=n)
        fw = arr - _np.uint64(origin)
        dist = _np.minimum(fw, -fw)
        return arr[_np.lexsort((arr, dist))].tolist()
    if _use_numpy(n):
        mu = _np.uint64(mask)
        arr = _np.fromiter(ids, dtype=_np.uint64, count=n)
        fw = (arr - _np.uint64(origin)) & mu
        dist = _np.minimum(fw, (-fw) & mu)
        return arr[_np.lexsort((arr, dist))].tolist()
    decorated = sorted(
        (min((nid - origin) & mask, (origin - nid) & mask), nid)
        for nid in ids
    )
    return [nid for _, nid in decorated]


# ----------------------------------------------------------------------
# Balanced leaf-set selection
# ----------------------------------------------------------------------


def balanced_counts_arrays(n_succ, n_pred, half_capacity: int):
    """Vectorised :func:`_balanced_counts`: parallel successor and
    predecessor count arrays in, parallel take-count arrays out.
    numpy-only; the vector engine folds a whole wave's per-message
    balanced thresholds through one call instead of a Python loop."""
    take_succ = _np.minimum(half_capacity, n_succ)
    take_pred = _np.minimum(half_capacity, n_pred)
    spare = (half_capacity - take_succ) + (half_capacity - take_pred)
    extra = _np.minimum(spare, n_succ - take_succ)
    take_succ = take_succ + extra
    take_pred = take_pred + _np.minimum(
        spare - extra, n_pred - take_pred
    )
    return take_succ, take_pred


def select_balanced_arrays(arr, origin: int, mask: int, half_ring: int,
                           half_capacity: int):
    """Array-native :func:`select_balanced`: uint64 ids in, uint64 ids
    out (selection order unspecified).  numpy-only -- the vector engine
    calls this directly on its resident id arrays; the set-based
    wrapper below routes through it after conversion."""
    mu = _np.uint64(mask)
    fw = (arr - _np.uint64(origin)) & mu
    succ_mask = fw <= _np.uint64(half_ring)
    succ_ids = arr[succ_mask]
    pred_ids = arr[~succ_mask]
    take_succ, take_pred = _balanced_counts(
        len(succ_ids), len(pred_ids), half_capacity
    )
    parts = []
    if take_succ:
        if take_succ < len(succ_ids):
            d = fw[succ_mask]
            keep = _np.argpartition(d, take_succ - 1)[:take_succ]
            parts.append(succ_ids[keep])
        else:
            parts.append(succ_ids)
    if take_pred:
        if take_pred < len(pred_ids):
            d = ((-fw) & mu)[~succ_mask]
            keep = _np.argpartition(d, take_pred - 1)[:take_pred]
            parts.append(pred_ids[keep])
        else:
            parts.append(pred_ids)
    if not parts:
        return arr[:0]
    return _np.concatenate(parts)


def select_balanced(
    ids: Iterable[int],
    origin: int,
    mask: int,
    half_ring: int,
    half_capacity: int,
) -> set[int]:
    """The paper's UPDATELEAFSET selection over plain ids.

    Equivalent to :func:`repro.core.leafset.select_balanced_ids` for
    candidate sets that do not contain *origin* (the fast engine's
    callers guarantee that).  Distances per side are unique, so the
    result is a well-defined set regardless of input order.
    """
    if not isinstance(ids, (list, tuple, set)):
        ids = list(ids)
    n = len(ids)
    if _use_numpy(n):
        arr = _np.fromiter(ids, dtype=_np.uint64, count=n)
        return set(
            select_balanced_arrays(
                arr, origin, mask, half_ring, half_capacity
            ).tolist()
        )

    successors: list[tuple[int, int]] = []
    predecessors: list[tuple[int, int]] = []
    for nid in ids:
        forward = (nid - origin) & mask
        if forward <= half_ring:
            successors.append((forward, nid))
        else:
            predecessors.append((mask + 1 - forward, nid))
    take_succ, take_pred = _balanced_counts(
        len(successors), len(predecessors), half_capacity
    )
    chosen = {nid for _, nid in nsmallest(take_succ, successors)}
    chosen.update(nid for _, nid in nsmallest(take_pred, predecessors))
    return chosen


# ----------------------------------------------------------------------
# CREATEMESSAGE's close/rest split
# ----------------------------------------------------------------------


def close_and_rest(
    ids: Iterable[int],
    peer: int,
    mask: int,
    half_ring: int,
    half_capacity: int,
) -> tuple[list[int], list[int]]:
    """Partition a CREATEMESSAGE union around the destination *peer*.

    Returns ``(close_part, rest)``: the balanced-closest selection
    around *peer* and the remaining ids, both in ``(ring distance to
    peer, id)`` order -- exactly the reference protocol's message
    layout.  *ids* must not contain *peer*.

    The numpy path computes the forward-distance array once and derives
    ranking, successor/predecessor split, and the balanced pick from it
    in a single pass (this runs twice per exchange, it is the hottest
    kernel in the engine).  The Python leg is
    :func:`repro.core.leafset.split_balanced_ids`, the same single-sort
    split the reference CREATEMESSAGE runs.
    """
    pool = ids if isinstance(ids, (list, tuple, set)) else list(ids)
    n = len(pool)
    if _use_numpy(n, NUMPY_MIN_SPLIT):
        arr = _np.fromiter(pool, dtype=_np.uint64, count=n)
        close_arr, rest_arr = close_and_rest_arrays(
            arr, peer, mask, half_ring, half_capacity
        )
        return close_arr.tolist(), rest_arr.tolist()
    return split_balanced_ids(pool, peer, mask, half_ring, half_capacity)


def close_and_rest_arrays(arr, peer: int, mask: int, half_ring: int,
                          half_capacity: int):
    """Array-native :func:`close_and_rest`: uint64 ids in, a
    ``(close, rest)`` pair of uint64 arrays out, both in ``(ring
    distance to peer, id)`` order.  numpy-only; shared by the set-based
    wrapper above and the vector engine's resident-array hot path.

    Within one side, ranked order (by ring distance) equals
    forward/backward-distance order, so the balanced pick is simply
    "the first ``take`` of each side in ranked order" -- one running
    count per side instead of per-side ``argpartition`` passes.
    """
    n = len(arr)
    if mask == 0xFFFFFFFFFFFFFFFF:
        # 64-bit ring: uint64 arithmetic wraps modulo 2**64 on its
        # own, the mask ops are no-ops.
        fw = arr - _np.uint64(peer)
        bw = -fw
    else:
        mu = _np.uint64(mask)
        fw = (arr - _np.uint64(peer)) & mu
        bw = (-fw) & mu
    order = _np.lexsort((arr, _np.minimum(fw, bw)))
    succ_ranked = (fw <= _np.uint64(half_ring))[order]
    succ_seen = _np.cumsum(succ_ranked)
    n_succ = int(succ_seen[-1]) if n else 0
    take_succ, take_pred = _balanced_counts(
        n_succ, n - n_succ, half_capacity
    )
    pred_seen = _arange(n + 1)[1:] - succ_seen
    keep = _np.where(
        succ_ranked, succ_seen <= take_succ, pred_seen <= take_pred
    )
    ranked = arr[order]
    return ranked[keep], ranked[~keep]


#: Growing shared index buffer: the group-cap and balanced-pick
#: kernels need a fresh ``arange`` per call only as a *read-only*
#: ramp, so one cached buffer (sliced per call) removes the hottest
#: allocation in the vector engine's exchange path.
_ARANGE = None


def _arange(n: int):  # pragma: no cover - numpy-only helper
    global _ARANGE
    if _ARANGE is None or _ARANGE.size < n:
        _ARANGE = _np.arange(max(n, 256))
    return _ARANGE[:n]


# ----------------------------------------------------------------------
# Prefix-table slot geometry
# ----------------------------------------------------------------------


def prefix_slots(ids: Sequence[int], origin: int, bits: int,
                 digit_bits: int, base_mask: int) -> list[int]:
    """Packed prefix-table slots ``(row << digit_bits) | column`` of
    every id relative to *origin* (ids must differ from *origin*).

    This is the standalone form of the slot geometry that the engine
    hot paths inline (``prefix_part`` and the absorb loops in
    :mod:`~repro.engine_fast.sim`); the differential and property
    suites pin it against :meth:`repro.core.idspace.IDSpace.prefix_slot`,
    which anchors the inlined copies to the same reference.
    """
    n = len(ids)
    if n and _use_numpy(n, NUMPY_MIN_SLOTS):
        arr = _np.fromiter(ids, dtype=_np.uint64, count=n)
        return prefix_slots_arrays(
            arr, origin, bits, digit_bits, base_mask
        ).tolist()
    out: list[int] = []
    for nid in ids:
        diff = origin ^ nid
        row = (bits - diff.bit_length()) // digit_bits
        shift = bits - (row + 1) * digit_bits
        out.append((row << digit_bits) | ((nid >> shift) & base_mask))
    return out


def prefix_part(rest: list[int], peer: int, bits: int, digit_bits: int,
                base_mask: int, k: int,
                tables: tuple[Sequence[int], Sequence[int]] | None = None,
                ) -> tuple[list[int], list[int]]:
    """CREATEMESSAGE's prefix-targeted part: walk *rest* (already in
    ranked order) and keep the first *k* ids landing in each slot of a
    hypothetical table centred on *peer* -- the paper's "potentially
    useful for the peer" bound, realised constructively.

    Returns ``(kept_ids, kept_slots)``.  The slots come for free from
    the capping pass, and because a message is only ever absorbed by
    the peer it was created for, they are exactly the receiving node's
    UPDATEPREFIXTABLE slot keys -- shipping them avoids recomputing the
    digit geometry on the absorb side.
    """
    n = len(rest)
    if n and _use_numpy(n, NUMPY_MIN_SLOTS):
        arr = _np.fromiter(rest, dtype=_np.uint64, count=n)
        ids_arr, slots_arr = prefix_part_arrays(
            arr, peer, bits, digit_bits, base_mask, k
        )
        return ids_arr.tolist(), slots_arr.tolist()
    ids_out: list[int] = []
    slots_out: list[int] = []
    id_append = ids_out.append
    slot_append = slots_out.append
    occupancy = {}
    get = occupancy.get
    row_of, shift_of = tables if tables is not None else slot_tables(
        bits, digit_bits
    )
    for nid in rest:
        row = row_of[(peer ^ nid).bit_length()]
        slot = (row << digit_bits) | ((nid >> shift_of[row]) & base_mask)
        count = get(slot, 0)
        if count < k:
            occupancy[slot] = count + 1
            id_append(nid)
            slot_append(slot)
    return ids_out, slots_out


#: Per-geometry digit-boundary tables for the vectorised slot kernel:
#: ``(bits, digit_bits) -> uint64 array of 2**(digit_bits*m)`` bounds.
_SLOT_THRESHOLDS: dict = {}


def _slot_thresholds(bits: int, digit_bits: int):
    key = (bits, digit_bits)
    cached = _SLOT_THRESHOLDS.get(key)
    if cached is None:
        rows = bits // digit_bits
        cached = _SLOT_THRESHOLDS[key] = _np.array(
            [1 << (digit_bits * m) for m in range(1, rows)],
            dtype=_np.uint64,
        )
    return cached


def prefix_slots_arrays(arr, origin: int, bits: int, digit_bits: int,
                        base_mask: int):
    """Array-native :func:`prefix_slots`: uint64 ids in, int64 packed
    slots out.  numpy-only, shared with the vector engine.

    The row of an id is determined by which digit-aligned power-of-two
    band ``own ^ id`` falls in, so one ``searchsorted`` against the
    (cached) band boundaries replaces the float ``bit_length``
    emulation: ``row = rows - 1 - j`` and ``shift = digit_bits * j``
    where ``j`` counts the boundaries at or below the XOR difference.
    """
    if isinstance(origin, _np.ndarray):
        # Mixed-origin form (the vector engine's paired-message path):
        # one packed-slot pass over ids belonging to different tables.
        diff = arr ^ origin
    else:
        diff = arr ^ _np.uint64(origin)
    j = _slot_thresholds(bits, digit_bits).searchsorted(diff, side="right")
    shift = (j * digit_bits).astype(_np.uint64)
    col = (arr >> shift) & _np.uint64(base_mask)
    row = (bits // digit_bits - 1) - j.astype(_np.int64)
    return (row << digit_bits) | col.astype(_np.int64)


def prefix_part_with_slots(rest, slots, k: int, aux=None):
    """:func:`prefix_part_arrays` with the packed slots already in
    hand (computed once for the whole message union): only the
    first-``k``-per-slot cap in ranked order remains.  Returns
    ``(kept_ids, kept_slots)``, or ``(kept_ids, kept_slots,
    kept_aux)`` when *aux* (a parallel per-id payload) is given."""
    n = len(rest)
    if n == 0:
        return (rest, slots) if aux is None else (rest, slots, aux)
    order = _np.argsort(slots, kind="stable")
    sorted_slots = slots[order]
    idx = _arange(n)
    new_group = _np.empty(n, dtype=bool)
    new_group[0] = True
    _np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=new_group[1:])
    group_start = _np.maximum.accumulate(_np.where(new_group, idx, 0))
    keep = _np.empty(n, dtype=bool)
    keep[order] = (idx - group_start) < k
    if aux is None:
        return rest[keep], slots[keep]
    return rest[keep], slots[keep], aux[keep]


def segment_take(buf, starts, lens):  # pragma: no cover - numpy-only helper
    """Gather the variable-length windows ``buf[starts[i] :
    starts[i] + lens[i]]`` into one contiguous array, windows in
    order.

    numpy-only; the segmented twin of fancy indexing for pooled
    variable-length storage (the vector engine's arena keeps per-node
    tables as windows over shared buffers, and its slab measurer pulls
    every dirty node's window in one call instead of a Python loop).
    """
    total = int(lens.sum())
    if total == 0:
        return buf[:0]
    out_starts = _np.cumsum(lens) - lens
    within = _arange(total) - _np.repeat(out_starts, lens)
    return buf[_np.repeat(starts, lens) + within]


def prefix_part_arrays(arr, peer: int, bits: int, digit_bits: int,
                       base_mask: int, k: int):
    """Array-native :func:`prefix_part`: a ranked uint64 id array in,
    ``(kept_ids, kept_slots)`` arrays out (uint64 / int64).  numpy-only,
    shared by the list wrapper above and the vector engine."""
    n = len(arr)
    if n == 0:
        return arr, _np.empty(0, dtype=_np.int64)
    slots = prefix_slots_arrays(arr, peer, bits, digit_bits, base_mask)
    return prefix_part_with_slots(arr, slots, k)
