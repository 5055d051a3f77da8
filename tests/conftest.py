from dataclasses import replace
from pathlib import Path

import pytest

from leibnil.algebra import full_ideal
from leibnil.files import load_algebra_file
from leibnil.series import SeriesKind, SeriesTable, compute_series

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
def inconsistent_bundle(l2):
    """l2's series with general powers dying at 2, before the right index 3."""
    b = full_ideal(l2.algebra)
    general = SeriesTable(SeriesKind.GENERAL_POWERS,
                          ((1, b.space), (2, l2.algebra.zero_space())), False, True)
    return replace(compute_series(b, 8), general=general)
