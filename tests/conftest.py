import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from planar_rook import diagrams
from planar_rook.algebra import AlgebraElement
from planar_rook.diagrams import enumerate_planar


@lru_cache(maxsize=None)
def pool(n: int, c: int):
    return tuple(enumerate_planar(n, c))


@pytest.fixture
def profile_builds(monkeypatch):
    """The rows of every profile built from a diagram while the test runs.

    Calls are counted at ``diagrams._profile``.  Every name in a loaded
    ``planar_rook`` module that is bound to the cached ``top_profile`` or
    ``bottom_profile`` is swapped for an uncached lookup, so that a profile a
    cache already holds is counted too, whichever module asks for it.
    """
    rows = []
    build = diagrams._profile
    monkeypatch.setattr(diagrams, "_profile", lambda d, row: rows.append(row) or build(d, row))
    uncached = [
        (diagrams.top_profile, lambda d: diagrams._profile(d, 0)),
        (diagrams.bottom_profile, lambda d: diagrams._profile(d, 1)),
    ]
    for name, module in list(sys.modules.items()):
        if name == "planar_rook" or name.startswith("planar_rook."):
            for attr, value in list(vars(module).items()):
                for cached, lookup in uncached:
                    if value is cached:
                        monkeypatch.setattr(module, attr, lookup)
    return rows


def diagrams_st(n: int, c: int):
    return st.sampled_from(pool(n, c))


def coefficients_st():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


def elements_st(n: int, c: int, max_terms: int = 3):
    def build(pairs):
        terms = {}
        for d, q in pairs:
            terms[d] = terms.get(d, Fraction(0)) + q
        return AlgebraElement(n, c, terms)

    return st.lists(
        st.tuples(diagrams_st(n, c), coefficients_st()), min_size=0, max_size=max_terms
    ).map(build)
