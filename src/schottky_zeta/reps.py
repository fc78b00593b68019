"""Finite-dimensional unitary representations given by matrices on letters."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .schottky import SchottkyGroup, Word

UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """A unitary representation specified by one matrix per letter.

    The letter images must satisfy image(bar a) = image(a)^* ; the
    representation extends to words multiplicatively. Equality and hashing
    are by identity, so a rep can key the caches of the operators built on it;
    its images must not change once an operator has been assembled with it.
    """

    dim: int
    images: dict[int, np.ndarray]
    label: str

    def image(self, w: Word) -> np.ndarray:
        out = np.eye(self.dim, dtype=complex)
        for a in w:
            out = out @ self.images[a]
        return out

    def inverse_image(self, w: Word) -> np.ndarray:
        return self.image(w).conj().T

    def validate(self, group: SchottkyGroup, tol: float = UNITARITY_TOL) -> None:
        eye = np.eye(self.dim)
        for a in group.alphabet:
            u = self.images[a]
            if np.max(np.abs(u @ u.conj().T - eye)) > tol:
                raise ValueError(f"{self.label}: image of letter {a} is not unitary")
            if np.max(np.abs(self.images[group.bar(a)] - u.conj().T)) > tol:
                raise ValueError(f"{self.label}: image of letter {group.bar(a)} is not the adjoint of letter {a}")


_TRIVIAL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def trivial_rep(group: SchottkyGroup) -> UnitaryRep:
    """The trivial rep of group, one object per group while the group lives."""
    if group not in _TRIVIAL:
        one = np.ones((1, 1), dtype=complex)
        _TRIVIAL[group] = UnitaryRep(dim=1, images={a: one for a in group.alphabet}, label="trivial")
    return _TRIVIAL[group]


def direct_sum(r1: UnitaryRep, r2: UnitaryRep) -> UnitaryRep:
    images = {}
    for a in r1.images:
        u = np.zeros((r1.dim + r2.dim, r1.dim + r2.dim), dtype=complex)
        u[: r1.dim, : r1.dim] = r1.images[a]
        u[r1.dim :, r1.dim :] = r2.images[a]
        images[a] = u
    return UnitaryRep(dim=r1.dim + r2.dim, images=images, label=f"{r1.label}+{r2.label}")

