import pytest

from bridgetorsion import exact


@pytest.fixture
def break_letter(monkeypatch):
    """A function that replaces the image of y in the exact route with one
    whose g^2 slot of r is off by one, times scale: that breaks the exact
    checks of every knot."""

    def apply(scale=1):
        upper, p, q, r, v = exact.LETTERS[("y", 1)]
        letters = dict(exact.LETTERS)
        letters[("y", 1)] = (upper, (p[0], p[1], (p[2] + 1) * scale), q, r, v)
        monkeypatch.setattr(exact, "LETTERS", letters)

    return apply
