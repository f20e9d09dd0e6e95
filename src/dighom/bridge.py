"""The orientation chain map from the singular complex to the c1-complex.

beta sends an injective singular cube to its vertex-set elementary cube with
the orientation sign, and everything else to zero.  Realized over the
canonical enumerated bases this gives one matrix per degree; these matrices
commute with the boundaries, and comparing the two homology pipelines degree
by degree is the falsification harness for their isomorphism: both sides are
computed independently and reduced to canonical form, nothing is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainComplex, FGAbelianGroup, SparseIntMatrix, groups_isomorphic, homology_through
from .elementary import C1Complex, ElementaryCube, build_c1_complex
from .singular import (
    DEFAULT_BUDGET,
    build_singular_complex,
    is_injective,
    orientation,
    singular_homology,
)

__all__ = [
    "beta",
    "BetaMatrix",
    "beta_matrices",
    "DegreeComparison",
    "IsoReport",
    "verify_isomorphism",
]


def beta(sigma):
    """None for a noninjective cube, else (sign, elementary cube of its image)."""
    if not is_injective(sigma):
        return None
    o = orientation(sigma).o
    return o, ElementaryCube.from_vertices(sigma.corners)


@dataclass(frozen=True)
class BetaMatrix:
    """Per-degree matrices of beta over the enumerated bases.

    matrices[q] maps the singular degree-q basis into the elementary one;
    every column is zero or a single ±1 entry.
    """

    matrices: tuple
    singular: ChainComplex
    elementary: C1Complex


def beta_matrices(X, max_q, budget=DEFAULT_BUDGET):
    """Matrices of beta for degrees 0..max_q+1 over canonical bases."""
    sing = build_singular_complex(X, max_q, budget)
    elem = build_c1_complex(X)
    mats = []
    for q in range(max_q + 2):
        yindex = elem.complex.index(q)
        nrows = len(elem.complex.basis(q))
        cols = []
        for s in sing.basis(q):
            b = beta(s)
            cols.append({} if b is None else {yindex[b[1]]: b[0]})
        mats.append(SparseIntMatrix(nrows, len(sing.basis(q)), cols))
    return BetaMatrix(tuple(mats), sing, elem)


@dataclass(frozen=True)
class DegreeComparison:
    """One degree of the two-pipeline comparison; singular is None when the
    enumeration budget ran out before that degree could be computed."""

    q: int
    singular: FGAbelianGroup | None
    c1: FGAbelianGroup
    verdict: str  # "ok" | "mismatch" | "skipped"


@dataclass(frozen=True)
class IsoReport:
    comparisons: tuple

    @property
    def all_ok(self):
        return all(c.verdict == "ok" for c in self.comparisons)

    @property
    def any_mismatch(self):
        return any(c.verdict == "mismatch" for c in self.comparisons)

    @property
    def any_skipped(self):
        return any(c.verdict == "skipped" for c in self.comparisons)

    def to_json(self):
        def group(g):
            if g is None:
                return None
            return {"rank": g.rank, "torsion": list(g.torsion)}

        return {
            "comparisons": [
                {
                    "q": c.q,
                    "singular": group(c.singular),
                    "c1": group(c.c1),
                    "verdict": c.verdict,
                }
                for c in self.comparisons
            ],
            "all_ok": self.all_ok,
        }


def verify_isomorphism(X, max_q, budget=DEFAULT_BUDGET):
    """Compute both homologies independently and compare them degreewise.

    Budget-starved singular degrees are reported as skipped, never guessed.
    """
    sing = singular_homology(X, max_q, budget)
    c1 = homology_through(build_c1_complex(X, max_q + 1).complex, max_q)
    comps = []
    for q in range(max_q + 1):
        s = sing[q]
        if s is None:
            verdict = "skipped"
        elif groups_isomorphic(s, c1[q]):
            verdict = "ok"
        else:
            verdict = "mismatch"
        comps.append(DegreeComparison(q, s, c1[q], verdict))
    return IsoReport(tuple(comps))
