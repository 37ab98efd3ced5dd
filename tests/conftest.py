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
            a0, as_, ass, *rest = product(row, letters, b)
            return (a0, as_, ass + scale * a0, *rest)

        monkeypatch.setattr(exact, "_product", broken)

    return apply


def clearing_caches(monkeypatch):
    """Yields a function that sets an attribute of exact, as
    monkeypatch.setattr does, with exact's two caches cleared before the
    patch and again at teardown: _ring, whose entry (p, b) holds the guard
    of the width in force when it was filled, and _metabelian, whose entry
    (p, b) holds the checks once per p that a patched _zero_test or
    _digit_bits would otherwise not reach, or would leave behind."""
    def apply(name, value):
        exact._ring.cache_clear()
        exact._metabelian.cache_clear()
        monkeypatch.setattr(exact, name, value)

    yield apply
    exact._ring.cache_clear()
    exact._metabelian.cache_clear()


patch_exact = pytest.fixture(clearing_caches, name="patch_exact")
