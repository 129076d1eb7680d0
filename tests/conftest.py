from fractions import Fraction

import pytest

from heunops import field


@pytest.fixture(params=["Fraction", "mpq"])
def backend(request, monkeypatch):
    """The field module with its scalar type Q set to one backend."""
    q = Fraction if request.param == "Fraction" else \
        pytest.importorskip("gmpy2").mpq
    for name, value in (("Q", q), ("_Q0", q(0)), ("_Q1", q(1)),
                        ("_Q2", q(2))):
        monkeypatch.setattr(field, name, value)
    return q
