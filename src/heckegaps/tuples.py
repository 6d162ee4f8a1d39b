"""Admissible k-tuples.

H = {h_1 < ... < h_k} is admissible when for every prime p the offsets miss at
least one residue class mod p.  Only p <= k need checking: k offsets cannot
cover all p > k classes.  ``narrow_tuple`` builds a small-diameter admissible
tuple from k consecutive primes past k and then shrinks it greedily.
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
        if np.unique(arr % p).size == p:
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


def narrow_tuple(k: int) -> AdmissibleTuple:
    """An admissible k-tuple of small diameter.

    Start from k consecutive primes past k shifted to 0 (admissible: none of
    the offsets is divisible by any p <= k), then repeatedly move an endpoint
    into an interior hole.  Moves are tried in a fixed first-improvement
    order, right endpoint before left, holes ascending, so the result is
    reproducible.  Every move strictly shrinks the diameter.
    """
    if not 1 <= k <= 10**4:
        raise ValueError("k must lie in [1, 10^4]")
    if k == 1:
        return AdmissibleTuple(offsets=(0,), k=1, diameter=0, witness=None)
    base = _k_primes_past(k)
    H = [p - base[0] for p in base]
    small = _primes_upto(k)  # every candidate has k offsets
    while True:
        holes = sorted(set(range(H[0] + 1, H[-1])) - set(H))
        moved = False
        for body in (H[:-1], H[1:]):
            for t in holes:
                cand = sorted(body + [t])
                if _covering_prime(np.asarray(cand, dtype=np.int64), small) is None:
                    shift = cand[0]
                    H = [h - shift for h in cand]
                    moved = True
                    break
            if moved:
                break
        if not moved:
            break
    result = make_tuple(H)
    assert result.admissible, "narrowing broke admissibility"
    return result
