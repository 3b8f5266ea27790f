import dataclasses
from fractions import Fraction

import pytest

from dualbill.families import FAMILIES


@pytest.fixture
def bend(monkeypatch):
    """bend(tag, factor) puts in FAMILIES, for the rest of the test, the
    family's spec with every residue of its involution coefficient times
    factor."""

    def bend(tag: str, factor: Fraction) -> None:
        spec = FAMILIES[tag]
        residues = tuple(
            (p, (lambda n, r=r: r(n) * factor) if callable(r) else r * factor) for p, r in spec.residues
        )
        monkeypatch.setitem(FAMILIES, tag, dataclasses.replace(spec, residues=residues))

    return bend
