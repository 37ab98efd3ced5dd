import pytest

from bridgetorsion import exact


@pytest.fixture
def break_letter(monkeypatch):
    """A function that breaks the exact route's letter kernel: each word
    product it returns has the g^2 slot of its first entry off by scale
    times that entry's value slot.  That breaks the exact checks of every
    knot."""

    def apply(scale=1):
        product = exact._product

        def broken(row, letters, b):
            a0, ad, as_, ass, *rest = product(row, letters, b)
            return (a0, ad, as_, ass + scale * a0, *rest)

        monkeypatch.setattr(exact, "_product", broken)

    return apply
