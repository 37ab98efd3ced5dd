"""Scalar backends: IEEE double via cmath/math, or mpmath extended precision.

Everything downstream (polynomials, matrices, Taylor jets) is duck-typed,
so mpmath values flow through the same code paths as builtin complex.
"""

import cmath
import math


class Precision:
    """Bundle of the scalar constructors the pipeline needs."""

    __slots__ = ("name", "sqrt", "sin", "pi")

    def __init__(self, name="double"):
        self.name = name
        if name == "double":
            self.sqrt = cmath.sqrt
            self.sin = math.sin
            self.pi = math.pi
        elif name == "extended":
            import mpmath

            # A private context: the numbers it creates keep its 30 digits
            # in arithmetic, and the process-global mpmath.mp is untouched.
            ctx = mpmath.MPContext()
            ctx.dps = 30
            self.sqrt = ctx.sqrt
            self.sin = ctx.sin
            self.pi = +ctx.pi
        else:
            raise ValueError(f"unknown precision {name!r} (want 'double' or 'extended')")

    def __repr__(self):
        return f"Precision({self.name!r})"


DOUBLE = Precision("double")
