"""Resonance and characteristic variety components.

For a rationally decomposable arrangement both kinds of jump loci are
unions of combinatorially determined pieces, one per rank-2 flat of high
enough multiplicity: a linear subspace L_X cut out by sum(x_i) = 0 on the
coordinates of the flat, or the analogous subtorus T_X.  Components are
stored by their coordinate support only; the single defining equation
drops the dimension to |support| - 1.

The subtorus description of the characteristic variety additionally needs
the rationalized Alexander invariant to be separated, which is not
decidable from the input data.  Callers must assert it explicitly and the
assertion is recorded in the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrangement import Arrangement, compute_l2
from .errors import DomainError, HypothesisError, RefusalError
from .formulas import free_chen
from .holonomy import Analysis


@dataclass(frozen=True)
class LinearComponent:
    support: tuple[int, ...]
    dimension: int

    def __post_init__(self):
        _check_support(self.support, self.dimension)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CharacteristicReport:
    """Sequence of subtorus components plus the hypotheses they rely on."""

    components: tuple[TorusComponent, ...]
    hypotheses: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]


def _deep_flats(arr: Arrangement, s: int):
    if s < 1:
        raise DomainError("jump locus depth must be >= 1")
    return [f for f in compute_l2(arr) if f.mobius > s]


def resonance_components(an: Analysis, s: int) -> list[LinearComponent]:
    """Components of the depth-s resonance variety, one per flat with mu > s."""
    if not an.decomposable["rational"]:
        raise HypothesisError(
            "the flat-by-flat description of the resonance variety assumes "
            "a rationally decomposable arrangement"
        )
    flats = _deep_flats(an.arr, s)
    return [LinearComponent(f.members, len(f.members) - 1) for f in flats]


def characteristic_components(
    an: Analysis, s: int, *, separated: bool = False
) -> CharacteristicReport:
    """Subtorus components of the depth-s characteristic variety.

    Requires the caller to assert separatedness of the rationalized
    Alexander invariant; the assertion is echoed in the report.
    """
    if not an.decomposable["rational"]:
        raise HypothesisError(
            "the subtorus description of the characteristic variety assumes "
            "a rationally decomposable arrangement"
        )
    if not separated:
        raise RefusalError(
            "refusing to enumerate characteristic components: separatedness "
            "of the Alexander invariant cannot be checked from the input; "
            "pass separated=True (--assert-separated) to assert it"
        )
    comps = tuple(
        TorusComponent(f.members, len(f.members) - 1) for f in _deep_flats(an.arr, s)
    )
    return CharacteristicReport(
        comps, hypotheses={"q_decomposable": True, "separated": "asserted"}
    )


def chen_ranks_from_resonance(an: Analysis, k: int) -> int:
    """Chen rank theta_k summed over depth-1 resonance components."""
    if k < 2:
        raise DomainError("the resonance formula for Chen ranks needs k >= 2")
    total = 0
    for comp in resonance_components(an, 1):
        total += free_chen(comp.dimension, k)
    return total
