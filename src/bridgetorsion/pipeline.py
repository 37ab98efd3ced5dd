"""End-to-end assembly of the torsion invariant multiset from P(1) and F,
read off the knot's exact elements (``exact``) at the roots of unity
(``read``: every index of a prime p from one big-int product, by Rader's
reindexing, and of a composite p by one dot product per index), the
verdict on two knots from the tau multisets their caller holds, and the
report encoding.  The batch catalog and the result cache,
one file per determinant, live in ``catalog``, which loads on first use;
``cached_invariant_report``, ``read_catalog`` and ``run_catalog`` stay
readable here, from that module, because the benchmark's tracer
(``perfbench/measure.py`` ``TARGETS``) names them under ``pipeline``."""

import json
import math
import operator
from collections import namedtuple
from functools import lru_cache

from .errors import IndexOutOfRange, InvalidFraction, ParseError, RecordError
from .exact import knot_elements
from .oracles import LensSpace, lens_torsion_magnitude
from .words import fractions_mirror_equivalent

#: Largest multiset deviation at which two knots of one determinant are
#: reported equivalent up to mirror image.
COMPARE_TOL = 1e-6
#: The fixed-point bits of the readout's cosines.
READOUT_BITS = 128
#: The least readout margin of a record, in bits: its floats are then off
#: by less than 2^-64 relative before their final rounding.
MIN_MARGIN_BITS = 64


def metabelian_pairing(p, k):
    """The unique k' in 1..(p-1)/2 with 2k' = +/- k mod p, from the inverse
    (p+1)/2 of 2 mod p; rho_{k'} is the companion representation at whose
    character F is evaluated.  InvalidFraction unless p is odd and at
    least 3, IndexOutOfRange unless k is in 1..(p-1)/2."""
    if p < 3 or p % 2 == 0:
        raise InvalidFraction(f"metabelian pairing needs odd p >= 3, got {p}")
    if not 1 <= k <= (p - 1) // 2:
        raise IndexOutOfRange(f"k = {k} outside 1..{(p - 1) // 2}")
    kp = k * ((p + 1) // 2) % p
    return min(kp, p - kp)


def _atan_inv(x, one):
    """one * atan(1/x), each term of its series truncated."""
    total, term, k = 0, one // x, 1
    while term:
        total += (-1) ** (k // 2) * (term // k)
        term //= x * x
        k += 2
    return total


def _cosines(p):
    """round(2^READOUT_BITS cos(2 pi j / p)) for j = 0..p-1, from integers
    only, each within one unit.  It works with G guard bits: pi by Machin's
    formula and e^(2 pi i/p) by its Taylor series are within 2^12 units of
    2^-(READOUT_BITS + G), so the j-th power, by fixed-point products, is
    within j 2^13 units; G = 32 + 2 log2 p puts that far below the half
    unit of the final rounding."""
    guard = 32 + 2 * p.bit_length()
    work = READOUT_BITS + guard
    one = 1 << work
    theta = (32 * _atan_inv(5, one) - 8 * _atan_inv(239, one)) // p
    parts, term, n = [0, 0, 0, 0], one, 0  # cos, sin, -cos, -sin
    while term:
        parts[n % 4] += term
        n += 1
        term = term * theta // (n << work)
    c, s = parts[0] - parts[2], parts[1] - parts[3]
    table, x, y = [0] * p, one, 0
    for j in range(p // 2 + 1):
        table[j] = table[-j] = (x + (1 << (guard - 1))) >> guard
        x, y = (x * c - y * s) >> work, (x * s + y * c) >> work
    return table


#: The cosine table of a composite p, which its loop reads, kept per p; a
#: prime p keeps only its Rader plan (``_rader``).
_loop_cosines = lru_cache(maxsize=None)(_cosines)


def _dot_sums(packed):
    """sum_e packed_e round(2^READOUT_BITS cos(2 pi e k'/p)) for k' = 1..(p-1)/2,
    p = 2 len(packed) - 1, one dot product each."""
    half = len(packed)
    p = 2 * half - 1
    table = _loop_cosines(p)
    return [sum(map(operator.mul, packed, [table[i % p] for i in range(0, kprime * half, kprime)]))
            for kprime in range(1, half)]


def _generator(p):
    """The least g whose powers g^j, j < m = (p - 1)/2, with their negatives
    run through every unit mod the prime p, which is all that Rader's
    reindexing needs of g: a primitive root does, and when m is odd so
    does its square."""
    m = (p - 1) // 2
    return next(g for g in range(2, p) if len({min(x, p - x) for x in
                                               (pow(g, j, p) for j in range(m))}) == m)


def _ones(count, nbytes):
    """sum_j 2^(8 nbytes j) over j < count: a 1 in each lane of nbytes bytes."""
    return int.from_bytes(b"\1".ljust(nbytes, b"\0") * count, "little")


def _kronecker(values, nbytes):
    """sum_j v_j 2^(8 nbytes j), for ints |v_j| < 2^(8 nbytes - 1): each lane
    written offset by 2^(8 nbytes - 1), and the offsets taken back at once."""
    offset = 1 << (8 * nbytes - 1)
    lanes = b"".join((v + offset).to_bytes(nbytes, "little") for v in values)
    return int.from_bytes(lanes, "little") - _ones(len(values), nbytes) * offset


@lru_cache(maxsize=None)
def _rader(p, nbytes):
    """None for composite p.  For prime p, Rader's plan of its readout in
    lanes of nbytes bytes, for g = ``_generator(p)`` and m = (p - 1)/2: the
    k' = +-g^j for j < m, in 1..m, and the cosines round(2^READOUT_BITS
    cos(2 pi g^j/p)) packed into those lanes.  The table itself is not
    kept."""
    if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
        return None
    g, table = _generator(p), _cosines(p)
    powers = [pow(g, j, p) for j in range((p - 1) // 2)]
    return tuple(min(x, p - x) for x in powers), _kronecker([table[x] for x in powers], nbytes)


def _rader_sums(packed, plan, nbytes):
    """The sums of ``_dot_sums`` for prime p, from its ``_rader`` plan, by one
    product.  Lane a of the packed values holds e = +-g^-a, which is k' at
    index -a of the plan, as g^m = +-1.  With k' = +-g^b, cos(2 pi e k'/p)
    is the cosine of lane b - a mod m, so the sum at k' is lane b plus lane
    b + m of the product, and 2^(8 nbytes m) = 1 mod 2^(8 nbytes m) - 1
    adds them.  The e = 0 term, packed_0 2^READOUT_BITS, enters every
    lane, with the offset 2^(8 nbytes - 1); a sum below that offset less 1
    in magnitude leaves each lane in [0, 2^(8 nbytes) - 1), so the
    residue, whose bytes are the offset sums, is below the modulus."""
    kprimes, cosines = plan
    bits, offset = 8 * nbytes * len(kprimes), 1 << (8 * nbytes - 1)
    modulus = (1 << bits) - 1
    product = _kronecker([packed[e] for e in kprimes[:1] + kprimes[:0:-1]], nbytes) * cosines
    common = _ones(len(kprimes), nbytes) * ((packed[0] << READOUT_BITS) + offset)
    lanes = (((product & modulus) + (product >> bits) + common) % modulus).to_bytes(bits // 8, "little")
    sums = [0] * len(kprimes)
    for kprime, at in zip(kprimes, range(0, bits // 8, nbytes)):
        sums[kprime - 1] = int.from_bytes(lanes[at:at + nbytes], "little") - offset
    return sums


class Reading(namedtuple("Reading", "p1_squared f_value tau margin_bits")):
    """A record's floats, read off at t = zeta^{k'}, and the least margin of
    its two readouts in bits."""

    __slots__ = ()


def read(elements):
    """The Reading of every index k' = 1..(p-1)/2, in order: P(1)^2, F and
    tau = P(1)^2 F from the knot's elements [n_ss(t^2), D], each the
    correctly rounded quotient of integer readouts.  The elements are
    real, so at t = zeta^k' an element is sum c_e cos(2 pi e k'/p), an
    integer sum with cosines in READOUT_BITS fixed point.  Each cosine is
    within one unit, so the sum is within L1 = sum |c_e| units, of bit
    length l; the margin is log2 of the sum over L1, and an index whose
    margin is below MIN_MARGIN_BITS gets its RecordError in place of a
    Reading.  The two elements share one sum per index, their
    coefficients packed as c + c' 2^K with K = READOUT_BITS + max l + 1.
    No cosine exceeds 2^READOUT_BITS, so each sum has magnitude at most L1
    2^READOUT_BITS < 2^(K - 1), and the balanced residue mod 2^K splits
    the packed sum into the two exactly.  A composite p takes one dot
    product per index (``_dot_sums``).  A prime p takes every index from
    one product (``_rader_sums``), the same integers: with both sums at
    most 2^(K - 1) - 1 in magnitude, a packed sum is below 2^(2K - 1) - 1,
    so lanes of W = 2K bits, rounded up to whole bytes, hold it."""
    n_bits, d_bits = (sum(map(abs, c)).bit_length() for c in elements)  # of L1
    p = len(elements[0])
    half = (p + 1) // 2
    width = READOUT_BITS + max(n_bits, d_bits) + 1  # K
    lane, mask = 1 << (width - 1), (1 << width) - 1
    packed = [(x + (y << width)) << (e > 0)  # c_-e = c_e: twice for e > 0
              for e, x, y in zip(range(half), *elements)]
    nbytes = (2 * width + 7) // 8  # W
    plan = _rader(p, nbytes)
    sums = _dot_sums(packed) if plan is None else _rader_sums(packed, plan, nbytes)
    readings, least = [], MIN_MARGIN_BITS
    p_unit, f_unit = 1 << (2 * READOUT_BITS + 4), 1 << (READOUT_BITS + 4)
    for kprime, total in enumerate(sums, 1):
        n_t = ((total + lane) & mask) - lane
        d_t = (total - n_t) >> width
        margin = min(READOUT_BITS, abs(n_t).bit_length() - 1 - n_bits,
                     abs(d_t).bit_length() - 1 - d_bits)
        if margin < least:
            readings.append(RecordError(f"readout margin {margin} bits at k' = {kprime}, "
                                        f"below {least}"))
        else:  # P(1) = -n/4 and F = 16/D, in units of 2^-READOUT_BITS
            nn = n_t * n_t
            readings.append(tuple.__new__(Reading, (nn / p_unit, f_unit / d_t,
                                                    nn / (d_t << READOUT_BITS), margin)))
    return readings


class InvariantRecord(namedtuple("InvariantRecord", "k kprime p1_squared f_value tau "
                                                   "cross_check diagnostics error")):
    """Per-index invariant data: tau_k = |P(1)^2 * F(chi_{rho_{k'}})|.

    ``cross_check`` is the lens-space oracle value at the same index; the
    per-index match is informational (sorted multisets are what the theory
    pins down), the acceptance equality runs at multiset level.
    ``diagnostics`` defaults to a new empty dict for each record, and
    ``error`` is None for a record that holds."""

    __slots__ = ()

    def __new__(cls, k, kprime, p1_squared, f_value, tau, cross_check=None,
                diagnostics=None, error=None):
        return tuple.__new__(cls, (k, kprime, p1_squared, f_value, tau, cross_check,
                                   {} if diagnostics is None else diagnostics, error))

    @property
    def ok(self):
        return self.error is None


class ComparisonVerdict(namedtuple("ComparisonVerdict", "knot_a knot_b verdict "
                                   "max_multiset_deviation congruence_match determinants_match")):
    """``verdict`` is "equivalent-up-to-mirror", "distinct" or
    "undetermined"; ``max_multiset_deviation`` is None when undetermined."""

    __slots__ = ()


def _record(idx, kprime, lens, reading):
    """The record of index idx, from the Reading at its k' or the
    RecordError of the pass or of that readout; a Reading whose tau is not
    positive fails too, as the theorem gives P(1)^2 F = 1/(u_k u_{kr}) > 0."""
    if not isinstance(reading, RecordError) and not reading.tau > 0:
        reading = RecordError(f"P(1)^2 F = {reading.tau:.3e} is not positive")
    oracle = lens_torsion_magnitude(lens, idx)
    if isinstance(reading, RecordError):
        return InvariantRecord(idx, kprime, 0.0, 0.0, float("nan"), oracle,
                               error=f"{type(reading).__name__}: {reading}")
    return tuple.__new__(InvariantRecord, (idx, kprime, *reading[:3], oracle,
                                           {"margin_bits": reading.margin_bits}, None))


def knot_pass(knot):
    """The knot's ``knot_elements``, or the RecordError of its exact pass:
    the one place where a failed pass becomes a value.  The error is kept
    without its traceback, whose frames would otherwise form a reference
    cycle with the caller's frame that holds the error."""
    try:
        return knot_elements(knot)
    except RecordError as exc:
        return exc.with_traceback(None)


def compute_invariants(knot):
    """One InvariantRecord per k = 1..(p-1)/2, torus knots b(p, 1) included,
    read off the knot's ``knot_pass`` by ``invariant_records``.  Failures
    are recorded rather than raised, so partial results survive."""
    return invariant_records(knot, knot_pass(knot))


def invariant_records(knot, elements):
    """The records of the knot in k order, read off its checked elements as
    ``knot_pass`` or ``checked_elements`` returns them, k' at k = 2k' or
    p - 2k' (``metabelian_pairing`` inverted); a failed pass fails every
    record with its RecordError, and a failed readout its own record."""
    p, lens, half = knot.p, LensSpace.of(knot.p, knot.q), (knot.p - 1) // 2
    readings = [elements] * half if isinstance(elements, RecordError) else read(elements)
    records = [None] * half
    for kp, reading in enumerate(readings, 1):
        idx = 2 * kp if 2 * kp <= half else p - 2 * kp
        records[idx - 1] = _record(idx, kp, lens, reading)
    return records


def tau_multiset(records):
    if any(r.error is not None for r in records):
        return None
    return sorted(r.tau for r in records)


def _multiset_deviation(taus_a, taus_b):
    if len(taus_a) != len(taus_b):
        return float("inf")
    dev = 0.0
    for a, b in zip(taus_a, taus_b):
        dev = max(dev, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return dev


def format_deviation(value, spec):
    """A multiset deviation for display; "n/a" for an undetermined verdict."""
    return "n/a" if value is None else format(value, spec)


def compare_knots(a, b, taus_a, taus_b):
    """Verdict on knots a and b from their ``tau_multiset``s, which the
    caller holds (a verdict computes no knot), with the arithmetic
    congruence q' = +/- q^{+/-1} mod p reported as independent
    confirmation.  A side with an error record, whose multiset is None,
    makes the verdict "undetermined", with no deviation."""
    det_match = a.p == b.p
    congruence = det_match and fractions_mirror_equivalent(a.p, a.q, b.q)
    if taus_a is None or taus_b is None:
        verdict, deviation = "undetermined", None
    else:
        deviation = _multiset_deviation(taus_a, taus_b)
        if det_match and deviation <= COMPARE_TOL:
            verdict = "equivalent-up-to-mirror"
        else:
            verdict = "distinct"
    return ComparisonVerdict(
        knot_a=a,
        knot_b=b,
        verdict=verdict,
        max_multiset_deviation=deviation,
        congruence_match=congruence,
        determinants_match=det_match,
    )


# -- reporting ---------------------------------------------------------------


def record_to_dict(rec):
    # [x, 0.0] pairs: the report format of complex values, kept for readers
    return {
        "k": rec.k,
        "kprime": rec.kprime,
        "p1_squared": [rec.p1_squared, 0.0],
        "F": [rec.f_value, 0.0],
        "tau": rec.tau if rec.error is None else None,
        "oracle": rec.cross_check,
        "absError": (
            abs(rec.tau - rec.cross_check)
            if rec.cross_check is not None and rec.error is None
            else None
        ),
        "diagnostics": rec.diagnostics,
        "error": rec.error,
    }


def knot_report(knot, records):
    return {
        "knot": {"p": knot.p, "q": knot.q},
        "records": [record_to_dict(r) for r in records],
    }


def verdict_to_dict(v):
    """JSON form of a verdict; JSON has no infinity, so a deviation that is
    not finite is written as null."""
    dev = v.max_multiset_deviation
    return {
        "knots": [[v.knot_a.p, v.knot_a.q], [v.knot_b.p, v.knot_b.q]],
        "verdict": v.verdict,
        "maxMultisetDeviation": dev if dev is not None and math.isfinite(dev) else None,
        "congruenceMatch": v.congruence_match,
        "determinantsMatch": v.determinants_match,
    }


def serialize_report(report):
    """Canonical byte form, compact JSON with sorted keys; identical
    computations serialize bit-for-bit."""
    return json.dumps(report, sort_keys=True).encode()


def parse_fraction(text):
    """'p/q' -> (p, q)."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParseError(f"expected 'p/q', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad fraction {text!r}: {exc}") from None


_CATALOG = {"cached_invariant_report", "read_catalog", "run_catalog"}


def __getattr__(name):
    """A catalog or cache function, read from ``catalog`` (loading it)."""
    if name not in _CATALOG:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import catalog

    return getattr(catalog, name)
