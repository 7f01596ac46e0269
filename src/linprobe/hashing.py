"""Hash function families: polynomial modulo the Mersenne prime
p = 2^61 - 1 (x -> a*x + b is its degree-1 case), simple tabulation, and a
memoized truly-random baseline.

All families are constructed from a (root_seed, stream) pair via
`derived_rng`, so every drawn function is reproducible and independent
streams can be evaluated in any order.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["MERSENNE61", "PolynomialHash", "TabulationHash", "TrulyRandomHash", "derived_rng",
    "derived_seed", "make_family", "new_polynomial", "new_tabulation", "verify_independence_exact"]

# The one modulus of polynomial hashing: the Mersenne prime 2^61 - 1.
MERSENNE61 = (1 << 61) - 1
FAMILIES = ("poly2", "poly3", "poly5", "tabulation", "random")  # the names make_family draws


def derived_rng(root_seed: int, stream: int) -> np.random.Generator:
    """Splittable seeding: stream `i` of a root seed is PCG64 seeded with
    SeedSequence(root_seed, spawn_key=(i,)).  Streams are independent, so
    per-trial work can run in any order or in parallel."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def derived_seed(root_seed: int, stream: int) -> int:
    """A single 64-bit seed identifying (root, stream); emitted in reports."""
    ss = derived_rng(root_seed, stream).bit_generator.seed_seq
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def _integer(name: str, value, least: int) -> int:
    """`value` as an int: `TypeError` for a bool or a non-integer (numpy
    integers pass), `ValueError` below `least`; messages start with `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _real(name: str, value, within, what: str) -> None:
    """`ValueError` unless `value` is a real number (numpy floats pass; a
    bool and nan do not) that `within` accepts; the message starts with
    `name` and says it must be `what`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or value != value or not within(value)):  # nan != nan
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _power_of_two(name: str, value) -> int:
    """`value` by the rule of `_integer`, and a power of two."""
    value = _integer(name, value, 1)
    if value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value


_LOW32 = 0xFFFFFFFF
_LOW29 = (1 << 29) - 1
# keys per block of `_mersenne_horner`: its five block buffers and the block
# of output, 128 KiB each, stay in a 2 MiB per-core L2 cache
_HORNER_BLOCK = 1 << 14


def _key(x, bound: int = MERSENNE61) -> int:
    """x as a Python int in [0, bound), bound <= p: [0, p) is the key universe
    of every family, scalar and batch alike, narrowed only by a narrow
    tabulation.  `TypeError` for a non-integer, `ValueError` outside."""
    x = operator.index(x)
    if not 0 <= x < bound:
        raise ValueError(f"key {x} outside [0, {bound})")
    return x


def _key_array(keys, bound: int = MERSENNE61) -> np.ndarray:
    """`keys` as a uint64 array, by the rule of `_key`: `TypeError` for a
    non-integer dtype, `ValueError` for a key outside [0, bound) (a negative
    key casts to one of at least 2^63).  A uint64 array passes with no copy."""
    x = np.asarray(keys)
    if x.size and x.dtype.kind not in "iu":
        raise TypeError(f"keys must be integers, not {x.dtype}")
    x = x.astype(np.uint64, copy=False)
    if x.size and x.max() >= bound:
        raise ValueError(f"keys must lie in [0, {bound})")
    return x


def _all_distinct(keys: np.ndarray) -> bool:
    """True iff the 1-D array holds no key twice (one sort)."""
    return bool((np.diff(np.sort(keys)) != 0).all())


def _mersenne_horner(coefficients: tuple[int, ...], keys) -> np.ndarray:
    """Horner evaluation mod p = 2^61 - 1 at every key in [0, p),
    bit-identical to the scalar path (Thorup, arXiv:1504.06804).

    Every product of residues is split into 32-bit halves and folded with
    2^64 = 8 and 2^61 = 1 (mod p), so no partial sum overflows.  The keys
    go through `_HORNER_BLOCK` at a time, each block's accumulator held in
    its slice of the output, with in-place ufuncs on preallocated buffers.
    """
    x = _key_array(keys)
    out = np.empty(x.shape, dtype=np.uint64)
    flat, out_flat = x.reshape(-1), out.reshape(-1)  # out is contiguous: a view
    buffers = np.empty((5, min(flat.size, _HORNER_BLOCK)), dtype=np.uint64)
    for lo in range(0, flat.size, _HORNER_BLOCK):
        acc = out_flat[lo:lo + _HORNER_BLOCK]
        x_hi, x_lo, hi, mid, tmp = buffers[:, :len(acc)]
        np.right_shift(flat[lo:lo + _HORNER_BLOCK], 32, out=x_hi)
        np.bitwise_and(flat[lo:lo + _HORNER_BLOCK], _LOW32, out=x_lo)
        acc.fill(coefficients[-1])
        for a in reversed(coefficients[:-1]):
            # acc * x = hh * 2^64 + mid * 2^32 + ll, with hh < 2^58, mid < 2^62, ll < 2^64
            np.right_shift(acc, 32, out=hi)
            acc &= _LOW32
            np.multiply(hi, x_lo, out=mid)
            mid += np.multiply(acc, x_hi, out=tmp)
            hi *= x_hi  # hh
            acc *= x_lo  # ll
            # mid * 2^32 = (mid >> 29) * 2^61 + (mid mod 2^29) * 2^32
            hi <<= 3
            hi += np.right_shift(mid, 29, out=tmp)
            mid &= _LOW29
            mid <<= 32
            hi += mid
            hi += np.right_shift(acc, 61, out=tmp)
            acc &= MERSENNE61
            acc += hi
            acc += a  # four terms below 2^61 plus ones below 2^34: under 2^64
            # acc mod p, by 2^61 = 1 (mod p)
            np.right_shift(acc, 61, out=tmp)
            acc &= MERSENNE61
            acc += tmp
            np.subtract(acc, MERSENNE61, out=acc, where=acc >= MERSENNE61)
    return out


@dataclass(frozen=True)
class PolynomialHash:
    """Degree-(k-1) polynomial mod p = 2^61 - 1, masked to a power-of-two
    range.  With uniformly drawn coefficients this family is k-independent
    (up to the small mod-range bias)."""

    coefficients: tuple[int, ...]
    range_t: int

    def __post_init__(self):
        # Python ints, as `_key` takes keys: numpy would multiply modulo 2^64
        coefficients = tuple(map(operator.index, self.coefficients))
        object.__setattr__(self, "coefficients", coefficients)
        if len(coefficients) < 1:
            raise ValueError("need at least one coefficient")
        _power_of_two("range_t", self.range_t)
        if any(not 0 <= a < MERSENNE61 for a in coefficients):
            raise ValueError("coefficients must be residues in [0, p)")

    def eval_mod_p(self, x: int) -> int:
        """Horner evaluation mod p, before range reduction, of a key x in
        [0, p) (as a Python int: numpy would multiply modulo 2^64)."""
        x, acc = _key(x), 0
        for a in reversed(self.coefficients):
            acc = (acc * x + a) % MERSENNE61
        return acc

    def __call__(self, x: int) -> int:
        return self.eval_mod_p(x) & (self.range_t - 1)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every key, as a uint64 array."""
        return _mersenne_horner(self.coefficients, keys) & (self.range_t - 1)


def new_polynomial(k: int, t: int, seed: int, *, stream: int = 0) -> PolynomialHash:
    """Draw a k-independent polynomial hash with range [t].

    Requires p >= 24*t so that the constant-time guarantees downstream
    apply, so t is at most 2^56.
    """
    k, t = _integer("k", k, 1), _power_of_two("t", t)
    if MERSENNE61 < 24 * t:
        raise ValueError(f"t must satisfy 24 * t <= p = {MERSENNE61}, got {t}")
    rng = derived_rng(seed, stream)
    return PolynomialHash(rng.integers(0, MERSENNE61, size=k, dtype=np.uint64), t)


# "linear" is no family of its own but new_polynomial(2, ...).  This name stays
# only while bench/spans.py looks up `LinearHash.__dict__["__call__"]`, and goes
# with that tracer target.
LinearHash = PolynomialHash


@dataclass(frozen=True, eq=False)
class TabulationHash:
    """Simple tabulation: a key is split into c characters of char_bits bits
    (least-significant character first), c and 2^char_bits being the shape of
    `tables`, and hashed to the XOR of per-character table lookups."""

    # read-only (c, 2^char_bits) uint64 array, one row per character
    tables: np.ndarray = field(repr=False)
    output_bits: int

    def __post_init__(self):
        if _integer("output_bits", self.output_bits, 0) > 64:
            raise ValueError("output width exceeds 64 bits")
        tables = self.tables  # kept uncopied only if no caller can write it
        if not (type(tables) is np.ndarray and tables.dtype == np.uint64
                and tables.flags.owndata and tables.flags.c_contiguous
                and not tables.flags.writeable):
            try:
                tables = np.array(tables, dtype=np.uint64)
            except OverflowError:  # an entry below 0 or at least 2^64
                raise ValueError("table entry out of output range") from None
        c, size = tables.shape if tables.ndim == 2 else (0, 0)
        char_bits = size.bit_length() - 1
        if c < 1 or size < 2 or size != 1 << char_bits or c * char_bits > 64:
            raise ValueError("tables must be c >= 1 rows of 2^char_bits >= 2 entries, with "
                             f"c * char_bits <= 64 key bits, got shape {tables.shape}")
        if int(tables.max()) >> self.output_bits:
            raise ValueError("table entry out of output range")
        tables.flags.writeable = False
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_char_bits", char_bits)
        # keys lie in [0, p) and in the characters' bits: a wider key would alias
        object.__setattr__(self, "_key_bound", min(MERSENNE61, 1 << c * char_bits))

    @cached_property
    def _rows(self) -> list[list[int]]:
        """`tables` as Python ints, for the scalar `__call__`."""
        return self.tables.tolist()

    @property
    def range_t(self) -> int:
        return 1 << self.output_bits

    def _lookup(self, rows, x, out):
        """`out` XOR the entry of row j at character j of x, for every row:
        the one rule of a Python-int key and of a uint64 key array."""
        bits, mask = self._char_bits, (1 << self._char_bits) - 1
        for j, row in enumerate(rows):
            out ^= row[(x >> j * bits) & mask]
        return out

    def __call__(self, x: int) -> int:
        return self._lookup(self._rows, _key(x, self._key_bound), 0)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every key, as a uint64 array."""
        x = _key_array(keys, self._key_bound)
        return self._lookup(self.tables, x, np.zeros(x.shape, dtype=np.uint64))


def new_tabulation(
    c: int, char_bits: int, output_bits: int, seed: int, *, stream: int = 0
) -> TabulationHash:
    """Fill c lookup tables of 2^char_bits uniform output_bits-bit words."""
    c, char_bits = _integer("c", c, 1), _integer("char_bits", char_bits, 1)
    if char_bits > 20:  # 2^20 entries, 8 MiB per table
        raise ValueError(f"char_bits must be at most 20, got {char_bits}")
    if c * char_bits > 64:
        raise ValueError("key width exceeds 64 bits")
    if _integer("output_bits", output_bits, 0) > 64:
        raise ValueError("output width exceeds 64 bits")
    # one draw gives the stream of c row draws: a power-of-two range rejects
    # nothing, so each row takes whole 64-bit words; read-only, it is not copied
    tables = derived_rng(seed, stream).integers(
        0, 1 << output_bits, size=(c, 1 << char_bits), dtype=np.uint64)
    tables.flags.writeable = False
    return TabulationHash(tables, output_bits)


class TrulyRandomHash:
    """Lazily memoized uniform map into [t]: the full-independence baseline.

    `__call__` defines every draw: a key's first evaluation takes the next
    value of the stream, and the memo (its insert lock-protected) returns it
    ever after.  `hash_array` of distinct keys on a fresh function draws
    them in one call and keeps them pending until `__call__` folds them in.
    """

    def __init__(self, t: int, seed: int, *, stream: int = 0):
        self.range_t = _power_of_two("t", t)
        self._rng = derived_rng(seed, stream)
        self._memo: dict[int, int] = {}
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()

    def __call__(self, x: int) -> int:
        x, memo = _key(x), self._memo
        v = memo.get(x)
        if v is None:
            with self._lock:
                if self._pending is not None:
                    keys, values = self._pending
                    memo.update(zip(keys.tolist(), values.tolist()))
                    self._pending = None
                v = memo.get(x)
                if v is None:
                    v = memo[x] = int(self._rng.integers(0, self.range_t))
        return v

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every key, as a uint64 array of the keys' shape.
        A fresh function hashing distinct keys draws them in one call, in
        key order: the draws scalar calls in key order would make."""
        x = _key_array(keys)
        flat = x.ravel()
        with self._lock:
            if flat.size and not self._memo and self._pending is None and _all_distinct(flat):
                values = self._rng.integers(0, self.range_t, size=flat.size).astype(np.uint64)
                self._pending = (flat.copy(), values)
                return values.reshape(x.shape)
        return np.fromiter(map(self, flat.tolist()), dtype=np.uint64,
                           count=flat.size).reshape(x.shape)


def make_family(name: str, t: int, seed: int, stream: int):
    """Draw a hash with range [t] from the family `name` of `FAMILIES` (or its
    `_seq` variant); tabulation reads a key as 4 16-bit characters."""
    base, t = name.removesuffix("_seq"), _power_of_two("t", t)
    if base in ("poly2", "poly3", "poly5"):
        return new_polynomial(int(base[-1]), t, seed, stream=stream)
    if base == "tabulation":
        return new_tabulation(4, 16, t.bit_length() - 1, seed, stream=stream)
    if base == "random":
        return TrulyRandomHash(t, seed, stream=stream)
    raise ValueError(f"unknown hash family {name!r}")


ENUMERATION_BUDGET = 10**6


def verify_independence_exact(p: int, k: int, tuple_size: int):
    """Exhaustively check j-independence of the degree-(k-1) polynomial
    family over a toy field Z_p with range t = p (so uniformity is exact).
    Needs k >= 1 and p^k <= ENUMERATION_BUDGET, so p is small enough for
    trial division to check that it is prime.

    Enumerates all p^k coefficient vectors and counts, for every j-tuple
    of distinct keys and every value assignment, how many functions
    realize it.  Returns (True, None) iff every count equals p^(k-j),
    otherwise (False, counterexample) where the counterexample records
    (keys, values, count, expected).
    """
    p, k = _integer("p", p, 0), _integer("k", k, 1)
    if p**k > ENUMERATION_BUDGET:
        raise ValueError(f"p^k = {p ** k} exceeds enumeration budget")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    # tuple_size may exceed k: the check then (correctly) fails, e.g. a
    # constant family is not 2-independent.
    if _integer("tuple_size", tuple_size, 1) > p:
        raise ValueError(f"tuple_size must be at most p = {p}, got {tuple_size}")

    powers = [[x**i for i in range(k)] for x in range(p)]  # key x's row: x^0 .. x^(k-1)
    tables = [tuple(sum(map(operator.mul, coeffs, row)) % p for row in powers)
              for coeffs in itertools.product(range(p), repeat=k)]

    expected = p ** (k - tuple_size) if k >= tuple_size else p ** k / p**tuple_size
    for keys in itertools.combinations(range(p), tuple_size):
        counts = Counter(tuple(tab[x] for x in keys) for tab in tables)
        for values in itertools.product(range(p), repeat=tuple_size):
            if counts.get(values, 0) != expected:
                return False, {
                    "keys": keys,
                    "values": values,
                    "count": counts.get(values, 0),
                    "expected": expected,
                }
    return True, None
