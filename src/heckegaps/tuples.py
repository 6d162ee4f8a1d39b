"""Admissible k-tuples.

H = {h_1 < ... < h_k} is admissible when for every prime p the offsets miss at
least one residue class mod p.  Only p <= k need checking: k offsets cannot
cover all p > k classes.  ``narrow_tuple`` builds a small-diameter admissible
tuple from k consecutive primes past k and then shrinks it greedily, moving an
endpoint into an interior hole.  A body (the tuple minus an endpoint) misses a
nonempty set of classes mod each p <= k, and adding a hole t covers them all
only when that set is one class r_p and t = r_p mod p.  So a move needs no
candidate checked from scratch, only one pass: residue counts mod every p <= k
find the lone free classes in O(pi(k) * k), and striking the holes in them
costs O(diameter * log log k).  The result still gets the full
``is_admissible`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .prime_engine import primes_in


@dataclass(frozen=True)
class AdmissibleTuple:
    """A strictly increasing offset tuple with admissibility witness data.

    ``witness`` is None for admissible tuples; otherwise it is the smallest
    prime whose residue classes are all covered by the offsets.
    """

    offsets: tuple[int, ...]
    k: int
    diameter: int
    witness: Optional[int] = None

    @property
    def admissible(self) -> bool:
        return self.witness is None


# Offsets stay strictly inside +-2^62, so every difference fits in int64.
_OFFSET_LIMIT = 1 << 62


def _validate_offsets(offsets: Sequence[int]) -> np.ndarray:
    hs = list(offsets)
    if any(abs(int(h)) >= _OFFSET_LIMIT for h in hs):
        raise ValueError("offsets must lie strictly between -2^62 and 2^62")
    arr = np.asarray(hs, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("need at least one offset")
    if arr.size > 1 and (np.diff(arr) <= 0).any():
        if np.unique(arr).size != arr.size:
            raise ValueError("duplicate offsets")
        raise ValueError("offsets must be strictly increasing")
    return arr


def is_admissible(offsets: Sequence[int]) -> tuple[bool, Optional[int]]:
    """(True, None) if admissible, else (False, smallest covering prime).

    Checks exactly the primes p <= k; for p > k the k residues can never
    exhaust Z/pZ, which is a correctness argument rather than a shortcut.
    """
    arr = _validate_offsets(offsets)
    k = int(arr.size)
    witness = _covering_prime(arr, _primes_upto(k))
    return witness is None, witness


def _primes_upto(k: int) -> list[int]:
    """The primes p <= k, the only ones an admissibility check needs."""
    return [int(p) for p in primes_in(2, k + 1)] if k >= 2 else []


def _covering_prime(arr: np.ndarray, primes: list[int]) -> Optional[int]:
    """The first p in ``primes`` whose residue classes ``arr`` all covers."""
    for p in primes:
        occ = np.zeros(p, dtype=bool)
        occ[arr % p] = True
        if occ.all():
            return p
    return None


def make_tuple(offsets: Sequence[int]) -> AdmissibleTuple:
    """Package offsets with their admissibility verdict."""
    arr = _validate_offsets(offsets)
    ok, witness = is_admissible(arr)
    return AdmissibleTuple(
        offsets=tuple(int(h) for h in arr),
        k=int(arr.size),
        diameter=int(arr[-1] - arr[0]),
        witness=witness,
    )


def _k_primes_past(k: int) -> list[int]:
    """The first k primes exceeding k."""
    lo = k + 1
    hi = max(2 * k + 10, 64)
    while True:
        ps = primes_in(lo, hi)
        if ps.size >= k:
            return [int(p) for p in ps[:k]]
        hi *= 2


def _lone_free_classes(H: np.ndarray, primes: list[int]) -> tuple[list, list]:
    """The (p, r) pairs where r is the only class mod p that a body misses.

    One list for the body H[:-1], one for H[1:].  H is admissible, so it
    misses some class mod every p; a body misses only r exactly when H misses
    only r and the dropped endpoint shares its class with another offset.
    """
    right, left = [], []
    for p in primes:
        counts = np.bincount(H % p, minlength=p)
        free = np.flatnonzero(counts == 0)
        if free.size != 1:
            continue
        r = int(free[0])
        if counts[H[-1] % p] > 1:
            right.append((p, r))
        if counts[H[0] % p] > 1:
            left.append((p, r))
    return right, left


def _shrink(H: np.ndarray, primes: list[int]) -> np.ndarray:
    """Greedy endpoint moves from an admissible H with H[0] = 0 until none fits.

    ``primes`` are the p <= len(H); returns the narrowed H, again from 0.
    """
    while True:
        hole = np.ones(int(H[-1]), dtype=bool)  # H[0] = 0 < t < H[-1]
        hole[H[:-1]] = False
        for body, lone in zip((H[:-1], H[1:]), _lone_free_classes(H, primes)):
            ok = hole.copy()
            for p, r in lone:
                ok[r::p] = False
            t = int(ok.argmax())
            if ok[t]:
                H = np.sort(np.append(body, t))
                H -= H[0]
                break
        else:
            return H


def narrow_tuple(k: int) -> AdmissibleTuple:
    """An admissible k-tuple of small diameter.

    Start from k consecutive primes past k shifted to 0 (admissible: none of
    the offsets is divisible by any p <= k), then repeatedly move an endpoint
    into an interior hole.  Moves are tried in a fixed first-improvement
    order, right endpoint before left, holes ascending, so the result is
    reproducible.  Every move strictly shrinks the diameter.  A hole is a
    legal move unless it lands on a body's lone free class mod some p <= k
    (``_lone_free_classes``), so each move costs one O(pi(k) * k + diameter *
    log log k) pass.  The result gets the full ``is_admissible`` check as an
    independent oracle, and a failure raises ``RuntimeError``.
    """
    if not 1 <= k <= 10**4:
        raise ValueError("k must lie in [1, 10^4]")
    if k == 1:
        return AdmissibleTuple(offsets=(0,), k=1, diameter=0, witness=None)
    base = _k_primes_past(k)
    H = np.asarray(base, dtype=np.int64) - base[0]
    result = make_tuple(_shrink(H, _primes_upto(k)))
    if not result.admissible:
        raise RuntimeError("narrowing broke admissibility")
    return result
