"""Brute-force integer-grid oracle for the constraint solver tests.

Evaluates conjunctions pointwise on a dense integer grid.  Slow and
exact, which is the point: it shares no code path with the solver.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Iterable, Optional

import numpy as np

from helpers import conjunction_variables
from termiarith import constraints as lc


def _atom_values(atom: lc.LinAtom, axes: dict[str, np.ndarray]) -> np.ndarray:
    # Canonical atoms have integer coefficients, so exact int64 math.
    val = np.array(int(atom.expr.const), dtype=np.int64)
    for v, c in atom.expr.terms:
        val = val + int(c) * axes[v]
    return val


def _atom_mask(atom: lc.LinAtom, axes: dict[str, np.ndarray]) -> np.ndarray:
    val = _atom_values(atom, axes)
    if atom.rel == lc.LT:
        return val < 0
    if atom.rel == lc.LE:
        return val <= 0
    return val == 0


def grid_points(
    conj: lc.Conjunction, variables: Iterable[str], lo: int = -60, hi: int = 60
) -> np.ndarray:
    """Boolean mask over the grid [lo,hi]^n of points satisfying conj."""
    names = sorted(variables)
    grids = np.meshgrid(
        *[np.arange(lo, hi + 1, dtype=np.int64) for _ in names],
        indexing="ij",
        sparse=True,
    )
    axes = dict(zip(names, grids))
    mask = np.ones([hi - lo + 1] * len(names), dtype=bool)
    for atom in conj:
        mask = mask & _atom_mask(atom, axes)
    return mask


def grid_satisfiable(
    conj: lc.Conjunction, variables: Optional[Iterable[str]] = None,
    lo: int = -60, hi: int = 60,
) -> bool:
    """Does some integer point of [lo,hi]^n satisfy conj?"""
    if variables is None:
        variables = conjunction_variables(conj)
    names = sorted(set(variables))
    if not names:
        return all(lc.atom_is_true(a) for a in conj)
    return bool(grid_points(conj, names, lo, hi).any())


def grid_counterexample(
    conj: lc.Conjunction, atom: lc.LinAtom, lo: int = -60, hi: int = 60
) -> bool:
    """Does some grid point satisfy conj but violate atom?"""
    names = sorted(conjunction_variables(conj) | atom.expr.variables())
    if not names:
        return all(lc.atom_is_true(a) for a in conj) and not lc.atom_is_true(atom)
    grids = np.meshgrid(
        *[np.arange(lo, hi + 1, dtype=np.int64) for _ in names],
        indexing="ij",
        sparse=True,
    )
    axes = dict(zip(names, grids))
    mask = np.ones([hi - lo + 1] * len(names), dtype=bool)
    for a in conj:
        mask = mask & _atom_mask(a, axes)
    mask = mask & ~_atom_mask(atom, axes)
    return bool(mask.any())


def interval_satisfiable(conj: lc.Conjunction) -> Optional[bool]:
    """Interval model of the solver on one-variable conjunctions.

    Returns None when the conjunction is not single-variable.  Mirrors
    the documented semantics: a strict atom c*x + k < 0 with integral
    terms means c*x <= -k - 1 over the integers, and everything else is
    closed rational interval arithmetic with Fraction endpoints.
    """
    names = sorted(conjunction_variables(conj))
    if len(names) != 1:
        return None
    var = names[0]
    lo: Optional[Fraction] = None
    lo_strict = False
    hi: Optional[Fraction] = None
    hi_strict = False

    def tighten(bound, strict, side):
        nonlocal lo, lo_strict, hi, hi_strict
        if side == "lo":
            if lo is None or bound > lo or (bound == lo and strict and not lo_strict):
                lo, lo_strict = bound, strict
        else:
            if hi is None or bound < hi or (bound == hi and strict and not hi_strict):
                hi, hi_strict = bound, strict

    for atom in conj:
        c = atom.expr.coeff(var)
        k = atom.expr.const
        if c == 0:
            if not lc.atom_is_true(atom):
                return False
            continue
        # c*x + k rel 0
        bound = -k / c
        strict = atom.rel == lc.LT
        if strict and c.denominator == 1:
            # c*x takes integer values, so c*x < -k sharpens to
            # c*x <= -k - 1 (or <= floor(-k) when -k is fractional).
            top = -k - 1 if k.denominator == 1 else Fraction(floor(-k))
            bound = top / c
            strict = False
        if atom.rel == lc.EQ:
            tighten(bound, False, "lo")
            tighten(bound, False, "hi")
        elif c > 0:
            tighten(bound, strict, "hi")
        else:
            tighten(bound, strict, "lo")
    if lo is None or hi is None:
        return True
    if lo < hi:
        return True
    if lo == hi:
        return not (lo_strict or hi_strict)
    return False


def random_conjunction(
    rng, max_vars: int = 3, max_atoms: int = 3, cmax: int = 20
) -> lc.Conjunction:
    names = ["X", "Y", "Z"][: rng.randint(1, max_vars)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        coeffs = {v: rng.randint(-cmax, cmax) for v in names}
        const = rng.randint(-cmax, cmax)
        rel = rng.choices([lc.LT, lc.LE, lc.EQ], weights=[4, 4, 2])[0]
        atoms.append(lc.make_atom(lc.LinExpr.build(coeffs, const), rel))
    return frozenset(atoms)


def random_atom(rng, max_vars: int = 3, cmax: int = 20) -> lc.LinAtom:
    names = ["X", "Y", "Z"][: rng.randint(1, max_vars)]
    coeffs = {v: rng.randint(-cmax, cmax) for v in names}
    rel = rng.choices([lc.LT, lc.LE, lc.EQ], weights=[4, 4, 2])[0]
    return lc.make_atom(lc.LinExpr.build(coeffs, rng.randint(-cmax, cmax)), rel)
