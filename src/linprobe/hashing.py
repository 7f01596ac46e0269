"""Hash function families: polynomial over a prime field, simple tabulation,
linear, and a memoized truly-random baseline.

All families are constructed from a (root_seed, stream) pair via
`derived_rng`, so every drawn function is reproducible and independent
streams can be evaluated in any order.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["MERSENNE61", "DEFAULT_FIELD", "LinearHash", "PolynomialHash", "PrimeField",
    "TabulationHash", "TrulyRandomHash", "derived_rng", "derived_seed", "new_linear",
    "new_polynomial", "new_tabulation", "verify_independence_exact"]

# Fixed production modulus: the Mersenne prime 2^61 - 1.
MERSENNE61 = (1 << 61) - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derived_rng(root_seed: int, stream: int) -> np.random.Generator:
    """Splittable seeding: stream `i` of a root seed is PCG64 seeded with
    SeedSequence(root_seed, spawn_key=(i,)).  Streams are independent, so
    per-trial work can run in any order or in parallel."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def derived_seed(root_seed: int, stream: int) -> int:
    """A single 64-bit seed identifying (root, stream); emitted in reports."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(stream,))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0])


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class PrimeField:
    """Prime modulus for polynomial hashing. Primality is checked."""

    p: int = MERSENNE61

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


DEFAULT_FIELD = PrimeField()

_LOW32 = 0xFFFFFFFF
_LOW29 = (1 << 29) - 1


def _reduce61(x: np.ndarray) -> np.ndarray:
    """x mod 2^61 - 1 for any uint64 array, using 2^61 = 1 (mod p)."""
    x = (x & MERSENNE61) + (x >> 61)
    np.subtract(x, MERSENNE61, out=x, where=x >= MERSENNE61)
    return x


def _mersenne_horner(field: PrimeField, coefficients: tuple[int, ...], keys) -> np.ndarray:
    """Horner evaluation mod p = 2^61 - 1 at every uint64 key, bit-identical
    to the scalar path (Thorup, arXiv:1504.06804).

    Keys are reduced mod p first, which is how the scalar arithmetic treats
    keys >= p.  Every product of residues is split into 32-bit halves and
    folded with 2^64 = 8 and 2^61 = 1 (mod p), so no partial sum overflows.
    """
    if field.p != MERSENNE61:
        raise ValueError("batch hashing supports only the Mersenne field 2^61 - 1")
    x = _reduce61(np.asarray(keys, dtype=np.uint64))
    x_hi, x_lo = x >> 32, x & _LOW32
    acc = np.full(x.shape, coefficients[-1], dtype=np.uint64)
    for a in reversed(coefficients[:-1]):
        # acc * x = hh * 2^64 + mid * 2^32 + ll, with hh < 2^58, mid < 2^62, ll < 2^64
        acc_hi, acc_lo = acc >> 32, acc & _LOW32
        mid = acc_hi * x_lo
        mid += acc_lo * x_hi
        hh = np.multiply(acc_hi, x_hi, out=acc_hi)
        ll = np.multiply(acc_lo, x_lo, out=acc_lo)
        # mid * 2^32 = (mid >> 29) * 2^61 + (mid mod 2^29) * 2^32
        acc = hh << 3
        acc += mid >> 29
        mid &= _LOW29
        mid <<= 32
        acc += mid
        acc += ll >> 61
        ll &= MERSENNE61
        acc += ll
        acc += a  # four terms below 2^61 plus ones below 2^34: under 2^64
        acc = _reduce61(acc)
    return acc


@dataclass(frozen=True)
class PolynomialHash:
    """Degree-(k-1) polynomial over a prime field, masked to a power-of-two
    range.  With uniformly drawn coefficients this family is k-independent
    (up to the small mod-range bias)."""

    field: PrimeField
    coefficients: tuple[int, ...]
    range_t: int

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise ValueError("need at least one coefficient")
        if not _is_pow2(self.range_t):
            raise ValueError(f"range {self.range_t} is not a power of two")
        if any(not 0 <= a < self.field.p for a in self.coefficients):
            raise ValueError("coefficients must be residues in [0, p)")

    @property
    def independence(self) -> int:
        return len(self.coefficients)

    def eval_mod_p(self, x: int) -> int:
        """Horner evaluation mod p, before range reduction."""
        p = self.field.p
        acc = 0
        for a in reversed(self.coefficients):
            acc = (acc * x + a) % p
        return acc

    def __call__(self, x: int) -> int:
        return self.eval_mod_p(x) & (self.range_t - 1)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every uint64 key, as a uint64 array (Mersenne field only)."""
        return _mersenne_horner(self.field, self.coefficients, keys) & (self.range_t - 1)


def new_polynomial(
    k: int, t: int, seed: int, *, stream: int = 0, field: PrimeField = DEFAULT_FIELD
) -> PolynomialHash:
    """Draw a k-independent polynomial hash with range [t].

    Requires p >= 24*t so that the constant-time guarantees downstream
    apply; use the PolynomialHash constructor directly for tiny test
    primes where that guard is irrelevant.
    """
    if k < 1:
        raise ValueError("independence degree k must be >= 1")
    if not _is_pow2(t):
        raise ValueError(f"table size {t} must be a nonzero power of two")
    if field.p < 24 * t:
        raise ValueError(f"modulus {field.p} < 24*t = {24 * t}")
    rng = derived_rng(seed, stream)
    coeffs = tuple(int(c) for c in rng.integers(0, field.p, size=k, dtype=np.uint64))
    return PolynomialHash(field=field, coefficients=coeffs, range_t=t)


@dataclass(frozen=True)
class LinearHash:
    """x -> ((a*x + b) mod p) masked to [t].  2-independent only."""

    field: PrimeField
    a: int
    b: int
    range_t: int

    def __post_init__(self):
        if not _is_pow2(self.range_t):
            raise ValueError(f"range {self.range_t} is not a power of two")
        if not (0 <= self.a < self.field.p and 0 <= self.b < self.field.p):
            raise ValueError("a, b must be residues in [0, p)")

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) % self.field.p & (self.range_t - 1)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every uint64 key, as a uint64 array (Mersenne field only)."""
        return _mersenne_horner(self.field, (self.b, self.a), keys) & (self.range_t - 1)


def new_linear(
    t: int, seed: int, *, stream: int = 0, field: PrimeField = DEFAULT_FIELD
) -> LinearHash:
    poly = new_polynomial(2, t, seed, stream=stream, field=field)
    b, a = poly.coefficients
    return LinearHash(field=field, a=a, b=b, range_t=t)


@dataclass(frozen=True, eq=False)
class TabulationHash:
    """Simple tabulation: a key is split into c characters (least-significant
    character first) and hashed to the XOR of per-character table lookups."""

    char_count: int
    char_bits: int
    output_bits: int
    # read-only (char_count, 2^char_bits) uint64 array, one row per character
    tables: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.char_count * self.char_bits > 64:
            raise ValueError("key width exceeds 64 bits")
        if self.output_bits > 64:
            raise ValueError("output width exceeds 64 bits")
        try:
            tables = np.array(self.tables, dtype=np.uint64)
        except OverflowError:  # an entry below 0 or at least 2^64
            raise ValueError("table entry out of output range") from None
        if tables.shape != (self.char_count, 1 << self.char_bits):
            raise ValueError("need one table of 2^char_bits entries per character")
        if int(tables.max(initial=0)) >> self.output_bits:
            raise ValueError("table entry out of output range")
        tables.flags.writeable = False
        object.__setattr__(self, "tables", tables)

    @cached_property
    def _rows(self) -> list[list[int]]:
        """`tables` as Python ints, for the scalar `__call__`."""
        return self.tables.tolist()

    @property
    def range_t(self) -> int:
        return 1 << self.output_bits

    def __call__(self, x: int) -> int:
        mask = (1 << self.char_bits) - 1
        out = 0
        for row in self._rows:
            out ^= row[x & mask]
            x >>= self.char_bits
        return out

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every uint64 key, as a uint64 array."""
        x = np.asarray(keys, dtype=np.uint64)
        mask = (1 << self.char_bits) - 1
        out = np.zeros(x.shape, dtype=np.uint64)
        for j, row in enumerate(self.tables):
            out ^= row[(x >> (j * self.char_bits)) & mask]
        return out


def new_tabulation(
    c: int, char_bits: int, output_bits: int, seed: int, *, stream: int = 0
) -> TabulationHash:
    """Fill c lookup tables with uniform output_bits-bit words."""
    if c * char_bits > 64:
        raise ValueError("key width exceeds 64 bits")
    if output_bits > 64:
        raise ValueError("output width exceeds 64 bits")
    rng = derived_rng(seed, stream)
    size = 1 << char_bits
    tables = np.stack([rng.integers(0, 1 << output_bits, size=size, dtype=np.uint64)
                       for _ in range(c)])
    return TabulationHash(char_count=c, char_bits=char_bits, output_bits=output_bits,
                          tables=tables)


class TrulyRandomHash:
    """Lazily memoized uniform map into [t]: the full-independence baseline.

    Repeated evaluation of a key always returns the first drawn value;
    the memo insert is lock-protected so concurrent evaluation is safe.
    """

    def __init__(self, t: int, seed: int, *, stream: int = 0):
        if not _is_pow2(t):
            raise ValueError(f"range {t} must be a nonzero power of two")
        self.range_t = t
        self._rng = derived_rng(seed, stream)
        self._memo: dict[int, int] = {}
        self._lock = threading.Lock()

    def __call__(self, x: int) -> int:
        memo = self._memo
        v = memo.get(x)
        if v is None:
            with self._lock:
                v = memo.get(x)
                if v is None:
                    v = int(self._rng.integers(0, self.range_t))
                    memo[x] = v
        return v

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """`__call__` of every uint64 key, as a uint64 array.  Keys not yet
        memoized get one batched draw in order of first occurrence, which
        equals scalar evaluation in key order."""
        uniq, first, inverse = np.unique(
            np.asarray(keys, dtype=np.uint64), return_index=True, return_inverse=True)
        order = np.argsort(first)
        ks = uniq[order].tolist()  # distinct keys in order of first occurrence
        with self._lock:
            memo = self._memo
            fresh = [k for k in ks if k not in memo]
            if fresh:
                drawn = self._rng.integers(0, self.range_t, size=len(fresh))
                memo.update(zip(fresh, drawn.tolist()))
            values = np.empty(len(ks), dtype=np.uint64)
            values[order] = np.fromiter(map(memo.__getitem__, ks), dtype=np.uint64,
                                        count=len(ks))
        return values[inverse]


ENUMERATION_BUDGET = 10**6


def verify_independence_exact(p: int, k: int, tuple_size: int):
    """Exhaustively check j-independence of the degree-(k-1) polynomial
    family over Z_p with range t = p (so uniformity is exact).

    Enumerates all p^k coefficient vectors and counts, for every j-tuple
    of distinct keys and every value assignment, how many functions
    realize it.  Returns (True, None) iff every count equals p^(k-j),
    otherwise (False, counterexample) where the counterexample records
    (keys, values, count, expected).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    # tuple_size may exceed k: the check then (correctly) fails, e.g. a
    # constant family is not 2-independent.
    if tuple_size < 1 or tuple_size > p:
        raise ValueError("tuple size must be in [1, p]")
    if p**k > ENUMERATION_BUDGET:
        raise ValueError(f"p^k = {p ** k} exceeds enumeration budget")

    tables = []
    for coeffs in itertools.product(range(p), repeat=k):
        values = []
        for x in range(p):
            acc = 0
            for a in reversed(coeffs):
                acc = (acc * x + a) % p
            values.append(acc)
        tables.append(tuple(values))

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
