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
    representation extends to words multiplicatively. They are held, as new
    arrays, in float64 when every entry is real and in complex128 otherwise:
    their dtype says whether the rep is real. Equality and hashing are by
    identity, so a rep can key the caches of the operators built on it; its
    images must not change once an operator has been assembled with it.

    `intertwiner`, when given, is the rep's operator V for the reflection
    J(z) = -z of the group (`SchottkyGroup.involution` sigma), a signed
    permutation (perm, sign) of the index: (V f)[i] = sign[i] f[perm[i]], with
    V^2 = 1 and V rho(a) V^-1 = rho(sigma(a)). Operators on a rep without one
    are not reduced by the symmetry.
    """

    dim: int
    images: dict[int, np.ndarray]
    label: str
    intertwiner: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        images = {a: np.array(u, complex) for a, u in self.images.items()}
        real = not any(u.imag.any() for u in images.values())
        object.__setattr__(self, "images", {a: u.real.copy() if real else u for a, u in images.items()})

    def image(self, w: Word) -> np.ndarray:
        out = np.eye(self.dim, dtype=np.result_type(*self.images.values()))
        for a in w:
            out = out @ self.images[a]
        return out

    def inverse_image(self, w: Word) -> np.ndarray:
        return self.image(w).conj().T

    def validate(self, group: SchottkyGroup) -> None:
        eye = np.eye(self.dim)
        for a in group.alphabet:
            u = self.images[a]
            if np.max(np.abs(u @ u.conj().T - eye)) > UNITARITY_TOL:
                raise ValueError(f"{self.label}: image of letter {a} is not unitary")
            if np.max(np.abs(self.images[group.bar(a)] - u.conj().T)) > UNITARITY_TOL:
                raise ValueError(f"{self.label}: image of letter {group.bar(a)} is not the adjoint of letter {a}")

    def check_intertwiner(self, sigma: tuple[int, ...]) -> np.ndarray:
        """The intertwiner V as a matrix; raise ValueError unless it is an
        involution with V rho(a) V^-1 = rho(sigma(a)) for every letter a."""
        perm, sign = self.intertwiner
        v = sign[:, None] * np.eye(self.dim)[perm]
        if np.max(np.abs(v @ v - np.eye(self.dim))) > UNITARITY_TOL:
            raise ValueError(f"{self.label}: the intertwiner of z -> -z is not an involution")
        for a, image in self.images.items():
            if np.max(np.abs(v @ image @ v.T - self.images[sigma[a - 1]])) > UNITARITY_TOL:
                raise ValueError(f"{self.label}: the intertwiner of z -> -z does not carry "
                                 f"letter {a} to letter {sigma[a - 1]}")
        return v


_TRIVIAL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def trivial_rep(group: SchottkyGroup) -> UnitaryRep:
    """The trivial rep of group, one object per group while the group lives."""
    if group not in _TRIVIAL:
        one = np.ones((1, 1))
        _TRIVIAL[group] = UnitaryRep(dim=1, images={a: one for a in group.alphabet}, label="trivial",
                                     intertwiner=(np.zeros(1, dtype=int), np.ones(1)))
    return _TRIVIAL[group]


def direct_sum(r1: UnitaryRep, r2: UnitaryRep) -> UnitaryRep:
    zero = np.zeros((r1.dim, r2.dim))
    images = {a: np.block([[r1.images[a], zero], [zero.T, r2.images[a]]]) for a in r1.images}
    intertwiner = None
    if r1.intertwiner is not None and r2.intertwiner is not None:
        (p1, s1), (p2, s2) = r1.intertwiner, r2.intertwiner
        intertwiner = (np.concatenate([p1, p2 + r1.dim]), np.concatenate([s1, s2]))
    return UnitaryRep(dim=r1.dim + r2.dim, images=images, label=f"{r1.label}+{r2.label}",
                      intertwiner=intertwiner)
