"""Milnor fiber first Betti numbers via exact character enumeration.

A multiplicity vector m on an arrangement of n hyperplanes defines a
cyclic cover of the projective complement of order N = sum(m).  Its first
Betti number is n - 1 (the identity character) plus, for every nonzero
residue j mod N, the depth of the character t_j = (j*m_H mod N)_H inside
the characteristic variety.  For a rationally decomposable arrangement
whose Alexander invariant is separated, that variety is the union of the
local subtori T_X, so membership reduces to congruences:

    t_j in T_X  iff  j*m_H = 0 mod N for every H outside X
                and  j*sum(m_H, H in X) = 0 mod N,

and a nontrivial character lies in at most one T_X because two rank-2
flats share at most one hyperplane.  Everything is residue arithmetic;
no floating-point roots of unity appear anywhere.

The second congruence follows from the first, since the multiplicities
sum to N.  So the algebraic monodromy in degree 1 is trivial, b1 = n - 1,
exactly when every multiple flat X has gcd(N, {m_H : H outside X}) = 1.
With all multiplicities 1 and rank at least 3 that always holds, which is
the unweighted statement for decomposable arrangements.  A weight vector
with gcd 1 overall can still fail it: if the multiplicities off X share
a divisor d > 1 with N, the d - 1 nontrivial characters of order dividing
d supported on X lie in T_X, and each adds mu(X) - 1 to b1.

Without the decomposability and separatedness hypotheses the same
enumeration still counts characters lying in the local subtori, which
always sit inside the characteristic variety; the result is then only a
lower bound and is reported as an advisory, never as b1.
"""

from __future__ import annotations

from math import gcd

from ._record import record
from .arrangement import Flat2, MultiArrangement, arrangement_rank, compute_l2
from .errors import DomainError, HypothesisError, ResourceError
from .holonomy import Analysis

# largest N = sum(m) for milnor_b1, whose report has one entry per residue
MAX_MILNOR_TOTAL = 10**6


@record
class MilnorReport:
    """``eigen_multiplicities[j]`` is the multiplicity of the eigenvalue
    exp(2 pi i j / N), one entry per residue j mod N; they sum to ``b1``."""

    N: int
    b1: int
    eigen_multiplicities: list[int]
    trivial_monodromy: bool

    def __post_init__(self):
        assert len(self.eigen_multiplicities) == self.N
        assert self.b1 == sum(self.eigen_multiplicities)


def _local_orders(ma: MultiArrangement) -> list[tuple[Flat2, int]]:
    """(X, d) per multiple flat X: d = gcd(N, the off-flat multiplicities),
    the largest order of a character in T_X.  The in-flat multiplicity sum
    is N minus the off-flat ones, so d divides it too (the second
    congruence of the module docstring)."""
    arr = ma.arrangement
    m = ma.multiplicities
    out = []
    for flat in compute_l2(arr).multiple_flats():
        members = set(flat.members)
        d = ma.total
        for h in range(arr.n):
            if h not in members:
                d = gcd(d, m[h])
        out.append((flat, d))
    return out


def _local_spectrum(ma: MultiArrangement) -> list[int]:
    """Depth contributions of the local subtori, a list indexed by residue
    mod N; entry 0, the trivial character, is 0.

    For each multiple flat X the characters t_j lying in T_X are exactly
    the j divisible by N/d, with d from ``_local_orders``; each
    contributes mu(X) - 1.
    """
    N = ma.total
    spectrum = [0] * N
    for flat, d in _local_orders(ma):
        step = N // d
        # distinct flats never claim the same nontrivial character
        assert not any(spectrum[step::step])
        spectrum[step::step] = [flat.mobius - 1] * (d - 1)
    return spectrum


def local_b1_lower_bound(ma: MultiArrangement) -> int:
    """Unconditional lower bound for b1 from the local subtori alone.

    Each multiple flat X holds d - 1 nontrivial characters, each adding
    mu(X) - 1, so the bound costs one gcd per flat, independent of N.
    """
    return (ma.arrangement.n - 1) + sum(
        (d - 1) * (flat.mobius - 1) for flat, d in _local_orders(ma)
    )


def milnor_b1(ma: MultiArrangement, an: Analysis, *,
              separated: bool = False) -> MilnorReport:
    """First Betti number of the Milnor fiber of a multi-arrangement.

    ``an`` is the analysis of its arrangement, which decides
    decomposability.  Needs the arrangement rationally decomposable and
    the caller's assertion that the Alexander invariant is separated.
    Raises ResourceError when N exceeds ``MAX_MILNOR_TOTAL``.
    """
    arr = ma.arrangement
    if an.arr != arr:
        raise DomainError("the analysis is of another arrangement")
    try:
        an.require(separated)
    except HypothesisError as exc:
        raise HypothesisError("%s; advisory: local subtori give b1 >= %d"
                              % (exc, local_b1_lower_bound(ma))) from None
    N = ma.total
    if N > MAX_MILNOR_TOTAL:
        raise ResourceError("multiplicity total N = %d exceeds %d; the report "
                            "needs one entry per residue mod N" % (N, MAX_MILNOR_TOTAL))
    eigen = _local_spectrum(ma)
    eigen[0] = arr.n - 1
    # under the hypotheses the local bound is b1; its terms
    # (d - 1)(mu(X) - 1) vanish only at d = 1, since mu(X) >= 2, so the
    # monodromy is trivial exactly when b1 = n - 1
    b1 = local_b1_lower_bound(ma)
    return MilnorReport(N=N, b1=b1, eigen_multiplicities=eigen,
                        trivial_monodromy=b1 == arr.n - 1)


def monodromy_trivial_criterion(ma: MultiArrangement, an: Analysis) -> bool:
    """Checkable hypotheses under which the algebraic monodromy is trivial.

    True when the arrangement has rank at least 3, is rationally
    decomposable, and no local subtorus holds a nontrivial character of
    the weight vector: every multiple flat has d = 1.  Each multiple flat
    has mu(X) >= 2, so that is the local lower bound for b1 being n - 1.
    The separatedness hypothesis is not decided here.  A False from the
    last condition is a certainty: the local subtori lie in the
    characteristic variety whether or not the Alexander invariant is
    separated, so the monodromy is then nontrivial.  The cost is one gcd
    per multiple flat, independent of N.  ``an`` is the analysis of the
    arrangement.
    """
    if an.arr != ma.arrangement:
        raise DomainError("the analysis is of another arrangement")
    return (
        arrangement_rank(an.arr) >= 3
        and an.decomposable["rational"]
        and all(d == 1 for _, d in _local_orders(ma))
    )
