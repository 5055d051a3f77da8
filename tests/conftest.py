from dataclasses import replace
from pathlib import Path

import pytest

from leibnil.algebra import algebra_from_constants, full_ideal
from leibnil.fields import QQ
from leibnil.files import load_algebra_file
from leibnil.linalg import span, vector
from leibnil.series import FOUND, NEVER, UNDETERMINED, SeriesTable, bk_chain, compute_series

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"

FIXTURE_NAMES = ["abelian2", "a2", "l2", "h3"]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def algebras():
    """The four valid bundled algebras, keyed by name."""
    return {name: load_algebra_file(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def abelian2(algebras):
    return algebras["abelian2"]


@pytest.fixture(scope="session")
def a2(algebras):
    return algebras["a2"]


@pytest.fixture(scope="session")
def l2(algebras):
    return algebras["l2"]


@pytest.fixture(scope="session")
def h3(algebras):
    return algebras["h3"]


@pytest.fixture(scope="session")
def broken():
    return load_algebra_file(FIXTURES / "broken.json")


@pytest.fixture(scope="session")
def h3_bundle_with_non_ideal_b2(h3):
    """h3's series with B^2 doctored to span(e1), which [e1, e2] = e3 takes out of it.

    Es(h3) = 0, so the B_k chain has B_2 = span(e1), which is not an ideal.
    """
    bundle = compute_series(full_ideal(h3.algebra), 2)
    right = SeriesTable(bundle.right.entries[:2] + ((2, span([vector(QQ, [1, 0, 0])], 3)),),
                        UNDETERMINED)
    return replace(bundle, right=right)


@pytest.fixture(scope="session")
def shrunken_chain(l2):
    """l2's B_k chain with B_2 = 0, so B^2 = span(e_2) escapes B_2."""
    b = full_ideal(l2.algebra)
    entries = bk_chain(compute_series(b, 8)).entries[:2] + ((2, l2.algebra.zero_space()),)
    return SeriesTable(entries, FOUND)


@pytest.fixture(scope="session")
def nf3_bundle_without_zero():
    """NF_3 with its right powers frozen at B^3 = span(e_3) past the cut at 3.

    NF_3: [e_i, e_1] = e_{i+1}. Its true B^4 is 0; the table claims B^4 = B^3
    and, ending NEVER, every later power too, so B^4 escapes (B^2).L^2 = 0 and
    B^6 escapes (B^3).L^2 = 0, while every entry up to 3 is true. The B_k
    chain comes with it, built from the true series.
    """
    alg = algebra_from_constants("NF3", 3, QQ, [(1, 1, 2, QQ.one), (2, 1, 3, QQ.one)])
    b = full_ideal(alg)
    bundle = compute_series(b, 8)
    e3 = span([vector(QQ, [0, 0, 1])], 3)
    right = SeriesTable(bundle.right.entries[:4] + ((4, e3),), NEVER)
    return replace(bundle, right=right), bk_chain(bundle)
