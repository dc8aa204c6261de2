"""Resonance and characteristic variety components.

For a rationally decomposable arrangement both kinds of jump loci are
unions of combinatorially determined pieces, one per rank-2 flat of high
enough multiplicity: a linear subspace L_X cut out by sum(x_i) = 0 on the
coordinates of the flat, or the analogous subtorus T_X.  Components are
stored by their coordinate support only; the single defining equation
drops the dimension to |support| - 1.

The subtorus description of the characteristic variety additionally needs
the rationalized Alexander invariant to be separated, which is not
decidable from the input data.  Callers must assert it explicitly;
`Analysis.require` checks both hypotheses and returns what a report
records.
"""

from __future__ import annotations

from ._record import record
from .arrangement import compute_l2
from .errors import DomainError
from .formulas import free_chen
from .holonomy import Analysis


@record
class LinearComponent:
    support: tuple[int, ...]
    dimension: int

    def __post_init__(self):
        _check_support(self.support, self.dimension)


@record
class TorusComponent:
    support: tuple[int, ...]
    dimension: int

    def __post_init__(self):
        _check_support(self.support, self.dimension)


def _check_support(support, dimension):
    if list(support) != sorted(set(support)):
        raise ValueError("support must be sorted and duplicate free")
    if len(support) < 3:
        raise ValueError("components need support on at least three hyperplanes")
    if dimension != len(support) - 1:
        raise ValueError("dimension must be |support| - 1")


def _components(kind, an: Analysis, s: int, separated: bool | None = None) -> list:
    # the gate, then the depth, then one component of dimension mu per flat
    # with mu > s
    an.require(separated)
    if s < 1:
        raise DomainError("jump locus depth must be >= 1")
    return [kind(f.members, f.mobius) for f in compute_l2(an.arr) if f.mobius > s]


def resonance_components(an: Analysis, s: int) -> list[LinearComponent]:
    """Components of the depth-s resonance variety, one per flat with mu > s."""
    return _components(LinearComponent, an, s)


def characteristic_components(
    an: Analysis, s: int, *, separated: bool = False
) -> tuple[TorusComponent, ...]:
    """Subtorus components of the depth-s characteristic variety.

    Requires the caller to assert separatedness of the rationalized
    Alexander invariant.
    """
    return tuple(_components(TorusComponent, an, s, separated))


def chen_ranks_from_resonance(an: Analysis, k: int) -> int:
    """Chen rank theta_k summed over depth-1 resonance components."""
    if k < 2:
        raise DomainError("the resonance formula for Chen ranks needs k >= 2")
    total = 0
    for comp in resonance_components(an, 1):
        total += free_chen(comp.dimension, k)
    return total
