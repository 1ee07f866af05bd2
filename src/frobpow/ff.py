"""Exact arithmetic in prime fields GF(p) and extensions GF(p^r).

Fields are constructed deterministically so that serialized output is
reproducible run to run: the modulus of GF(p^r) is the lexicographically
smallest monic irreducible polynomial of degree r over GF(p) (coefficient
tuples compared low-degree first), and a root of unity of order e is the first
element of that multiplicative order in the same coefficient-lex order
(:func:`root_of_unity`, which takes it from the powers of a primitive
element's (q - 1)/e-th power when they are few, and caches it per field and
e).

Elements are immutable values stored fully reduced; equality is coefficient
equality.  Every power, and so every inverse and order, is one
square-and-multiply on coefficient lists modulo the field's modulus, a single
built-in pow in a prime field.  :class:`MatrixFq` is dense.  Heavy loops run
on integer codes (see :meth:`Field.encode`) in numpy arrays through
:func:`code_arithmetic`, the one place that picks residues mod p (r = 1) or
lookup tables (r > 1), and the code dtype: int32 while (p - 1)^2 + p fits in
it (primes up to 46337), else int64.  Residue products must fit in an int64,
so prime fields, and the prime of an extension field, need p <= 3037000500.
The lookup tables are built with numpy from one source, the field's
discrete-log table (:func:`discrete_logs`, q - 1 element products): a product
is exp[log a + log b] and an inverse exp[-log a], while sums and negatives go
digit by digit over the codes' base-p digits.

Elimination is one sparse round-based kernel on :class:`CodeEntries`, a
matrix's nonzero entries packed one int64 key each: the simultaneous
reduction by leading columns of F4 linear algebra.  Each round, every live
row takes its leading entry, the shortest row leading a column without a
pivot becomes that column's pivot, and all other rows are reduced by their
columns' pivots in one merge of sorted keys.  A matrix takes as many rounds
as its longest chain of pivot dependencies, far fewer than its pivots.
:meth:`CodeEntries.pivot_columns` lists the pivot columns: where no row
reaches out of a set of columns, the pivots among them count its rank, so
one elimination ranks many independent blocks, however their columns
interleave.  :func:`rank_codes` and :func:`nullspace_codes` wrap the same
kernel for dense arrays, the latter with a back-reduction to the canonical
nullspace, again in rounds.  Every elimination charges what it holds against
MATRIX_BYTE_CAP before it allocates it.  The kernel only ranks and takes
nullspaces: the n x n matrices of group elements take their determinant
and inverse from :class:`MatrixFq`'s own small Gauss-Jordan elimination
over field elements.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

_MAX_CODE_PRIME = math.isqrt(2 ** 63 - 1) + 1  # largest p with (p - 1)^2 in an int64


class CapExceeded(RuntimeError):
    """An enumeration or matrix crossed its configured safety cap."""


def count_str(n):
    """n in decimal, or as "about 2^k" past 20 digits, so a refusal stays one short line."""
    return str(n) if n < 10 ** 20 else f"about 2^{round(math.log2(n))}"


def _over_cap(need_text, cap, subject, unit):
    return CapExceeded(f"{subject} needs {need_text} {unit}, above the cap of {count_str(cap)}")


def check_cap(need, cap, subject, unit):
    """CapExceeded when need units of an enumeration pass its cap."""
    if need > cap:
        raise _over_cap(count_str(need), cap, subject, unit)


def check_power_cap(base, exp, cap, subject, unit, scale=1, shift=0):
    """check_cap of need = scale * base^exp + shift, for base >= 2.

    With scale >= 1, a power whose logarithm clears the cap, 10^20 and the
    shift by far is refused by that logarithm, as count_str would print
    need, without being built: at a huge exponent the power alone takes
    seconds to minutes.  log2(base) is taken as the exact ratio of its
    float, so no exponent overflows the logarithm.
    """
    num, den = math.log2(base).as_integer_ratio()
    if scale >= 1 and exp * num > (cap.bit_length() + 67 + abs(shift).bit_length()) * den:
        from fractions import Fraction  # only a refusal loads it

        bits = Fraction(exp * num, den) + Fraction(math.log2(scale))
        raise _over_cap(f"about 2^{count_str(round(bits))}", cap, subject, unit)
    check_cap(scale * base ** exp + shift, cap, subject, unit)


_TRIAL_LIMIT = 1000  # trial divisors stay below it, so it decides n < 999^2
# Miller-Rabin to the 13 prime bases up to 41 is exact below psi_13, the least
# strong pseudoprime to all of them (up to 37 it is exact only below psi_12)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _not_prime_reason(n):
    """None if n is prime, else why not; ValueError past the exact range.

    Trial division up to _TRIAL_LIMIT names the least divisor it finds, and a
    deterministic Miller-Rabin test decides the rest in O(log n) products.
    """
    if n < 2:
        return "less than 2"
    for d in range(2, _TRIAL_LIMIT):
        if d * d > n:
            return None
        if n % d == 0:
            return f"divisible by {d}"
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is too large for an exact primality test "
                         f"(the limit is {_MILLER_RABIN_LIMIT})")
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return f"base {a} witnesses that it is composite"
    return None


def _check_prime(p):
    reason = _not_prime_reason(p)
    if reason is not None:
        raise ValueError(f"{p} is not prime ({reason})")


def factor_prime_power(q):
    """(p, r) with q = p^r, or ValueError if q is not a prime power.

    Only the largest r for which q is a perfect r-th power can work: if
    q = p^s, q is an r-th power exactly when r divides s, with root p^(s/r).
    """
    for r in range(q.bit_length(), 0, -1):
        p = _iroot(q, r)
        if p ** r == q:
            if _not_prime_reason(p) is not None:
                break
            return p, r
    raise ValueError(f"{q} is not a prime power")


def _iroot(n, r):
    """floor(n^(1/r)) for n >= 0, by Newton's method on integers."""
    if n < 2 or r == 1:
        return n
    x = 1 << -(-n.bit_length() // r)  # above the root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


@functools.lru_cache(maxsize=None)
def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- dense polynomial helpers over GF(p), coefficient lists low-to-high --

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, mod, p):
    # mod is monic; synthetic division, remainder returned
    a = list(a)
    d = len(mod) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
        a[i] = 0
    return _ptrim([c % p for c in a[:d]])


def _pmulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, mod, p)


def _digits(k, p, r):
    """The r base-p digits of k, low digit first."""
    out = []
    for _ in range(r):
        k, c = divmod(k, p)
        out.append(c)
    return out


def _horner(coeffs, x, acc):
    """acc * x^len + sum(c_i * x^i) for low-to-high coefficients, by Horner's rule."""
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ppowmod(base, e, mod, p):
    """base^e mod (mod, p) by square-and-multiply; a degree-1 modulus x - a, as
    the placeholder x of a prime field, leaves one built-in pow of base(a)."""
    if len(mod) == 2:
        return _ptrim([pow(_horner(base, -mod[0], 0), e, p)])
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while _ptrim(b):
        inv = pow(b[-1], p - 2, p)
        monic = [c * inv % p for c in b]
        a, b = b, _pmod(a, monic, p)
    return _ptrim(a)


def _is_irreducible(mod, p):
    """Rabin's test for a monic polynomial of degree >= 2 over GF(p)."""
    r = len(mod) - 1
    x = [0, 1]
    if _ppowmod(x, p ** r, mod, p) != x:
        return False
    for s in _prime_divisors(r):
        xp = _ppowmod(x, p ** (r // s), mod, p)
        diff = [(a - b) % p for a, b in itertools.zip_longest(xp, x, fillvalue=0)]
        if len(_pgcd(mod, diff, p)) != 1:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """GF(p^r) with a fixed monic irreducible modulus (low-to-high coefficients).

    For r = 1 the modulus is the placeholder polynomial x and elements are
    residues mod p.  Use :func:`make_field` to construct the canonical field
    for given (p, r).
    """

    p: int
    r: int
    modulus: tuple

    def __post_init__(self):
        _check_prime(self.p)
        if self.r < 1:
            raise ValueError("extension degree must be >= 1")
        if self.r == 1:
            if tuple(self.modulus) != (0, 1):
                raise ValueError("degree-1 fields use the placeholder modulus x")
        else:
            mod = tuple(c % self.p for c in self.modulus)
            if len(mod) != self.r + 1 or mod[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
            if not _is_irreducible(list(mod), self.p):
                raise ValueError(f"modulus {list(mod)} is reducible over GF({self.p})")
            object.__setattr__(self, "modulus", mod)

    @property
    def order(self):
        return self.p ** self.r

    def zero(self):
        return FieldElem(self, (0,) * self.r)

    def one(self):
        return FieldElem(self, (1,) + (0,) * (self.r - 1))

    def elem(self, value):
        """Coerce an int (prime-subfield constant) or coefficient sequence."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return _padded(self, (value % self.p,))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.r:
            raise ValueError(f"too many coefficients for GF({self.order})")
        return _padded(self, coeffs)

    def decode(self, code):
        """Inverse of :meth:`encode`: base-p digits, low digit first."""
        return FieldElem(self, tuple(_digits(code, self.p, self.r)))

    def encode(self, elem):
        """Pack an element into an integer code sum(c_i * p^i)."""
        return _horner(elem.coeffs, self.p, 0)

    def elements(self):
        """All elements in the canonical enumeration (ascending integer code)."""
        return (self.decode(c) for c in range(self.order))

    def elements_lex(self):
        """All elements in coefficient-lex order (c_0 most significant), counted lazily.

        itertools.product would first build the whole range(p) as a tuple.
        """
        for k in range(self.order):
            yield FieldElem(self, tuple(reversed(_digits(k, self.p, self.r))))

    def __str__(self):
        mod = ",".join(str(c) for c in self.modulus)
        return f"GF({self.order}; modulus=[{mod}])"

    __repr__ = __str__


def check_field_params(p, r):
    """ValueError unless make_field(p, r) can build GF(p^r), without its modulus search.

    p must be prime and r >= 1; an extension also needs code arithmetic, whose
    residue products overflow an int64 past p = _MAX_CODE_PRIME.
    """
    _check_prime(p)
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if r > 1 and p > _MAX_CODE_PRIME:
        # no code arithmetic fits: even the prime field's products overflow
        raise ValueError(f"GF({p}^{r}) is too large for int64 code arithmetic: "
                         f"(p - 1)^2 must fit in 63 bits, so p <= {_MAX_CODE_PRIME}")


@functools.lru_cache(maxsize=None)
def make_field(p, r=1):
    """The canonical GF(p^r): lexicographically smallest irreducible modulus.

    >>> make_field(2, 2).modulus
    (1, 1, 1)
    """
    check_field_params(p, r)
    if r == 1:
        return Field(p, 1, (0, 1))
    # candidates in lex order, counted lazily from constant term 1: x divides
    # every candidate before that, and itertools.product would build range(p)
    for k in range(p ** (r - 1), p ** r):
        mod = _digits(k, p, r)[::-1] + [1]
        if _is_irreducible(mod, p):
            return Field(p, r, tuple(mod))
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


def _padded(field, coeffs):
    """The element of field with these low-to-high coefficients, zero-padded to r."""
    return FieldElem(field, tuple(coeffs) + (0,) * (field.r - len(coeffs)))


class FieldElem:
    """An element of a :class:`Field`, stored as reduced coefficients.

    Supports the usual operators; ints coerce as prime-subfield constants.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _lift(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.r == 1:
            return FieldElem(f, (self.coeffs[0] * o.coeffs[0] % f.p,))
        return _padded(f, _pmulmod(self.coeffs, o.coeffs, f.modulus, f.p))

    __rmul__ = __mul__

    def inverse(self):
        return self ** -1

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        """:func:`_ppowmod` after reducing k mod q - 1, which takes k < 0 too."""
        f = self.field
        if not self:
            if k < 0:
                raise ZeroDivisionError(f"division by zero in {f}")
            return f.one() if k == 0 else self
        return _padded(f, _ppowmod(self.coeffs, k % (f.order - 1), f.modulus, f.p))

    def order(self):
        """Multiplicative order: q - 1 divided by each prime while the power stays one."""
        if not self:
            raise ValueError("zero has no multiplicative order")
        one = self.field.one()
        k = self.field.order - 1
        for prime in _prime_divisors(k):
            while k % prime == 0 and self ** (k // prime) == one:
                k //= prime
        return k

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.coeffs))

    def __str__(self):
        if self.field.r == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"{self}:{self.field}"


@functools.lru_cache(maxsize=None)
def root_of_unity(field, e):
    """The first element in coefficient-lex order of exact multiplicative order e.

    The elements of order e are the phi(e) powers zeta^k, gcd(k, e) = 1, of
    zeta = g^((q - 1)/e), g the first primitive element.  A scan meets one
    after about (q - 1)/phi(e) elements, so while phi(e)^2 < q - 1 the least
    of the powers is taken instead, and the scan is kept otherwise.

    >>> root_of_unity(make_field(5), 4).coeffs
    (2,)
    """
    q = field.order
    if e < 1 or (q - 1) % e != 0:
        raise ValueError(f"no primitive {e}-th root of unity in F_{{{q}}}")
    primes = _prime_divisors(e)
    phi = e // math.prod(primes) * math.prod(prime - 1 for prime in primes)
    if e == q - 1 or phi * phi >= q - 1:
        return next(x for x in field.elements_lex() if x and x.order() == e)
    zeta = root_of_unity(field, q - 1) ** ((q - 1) // e)
    return min((zeta ** k for k in range(1, e + 1) if math.gcd(k, e) == 1),
               key=lambda x: x.coeffs)


def binom_mod_p(d, i, p):
    """C(d, i) mod p by Lucas' theorem on base-p digits; 0 when i > d or i < 0."""
    if i < 0 or i > d:
        return 0
    out = 1
    while i or d:
        d, dd = divmod(d, p)
        i, ii = divmod(i, p)
        if ii > dd:
            return 0
        out = out * math.comb(dd, ii) % p
    return out


@functools.lru_cache(maxsize=None)
def _embed_root(src, dst):
    """Image of src's generator in dst: coefficient-lex first root of src.modulus."""
    return next(z for z in dst.elements_lex() if not _horner(src.modulus, z, dst.zero()))


def embed(src, dst, x):
    """Ring embedding GF(p^a) -> GF(p^ab), identity on the prime subfield."""
    if src.p != dst.p or dst.r % src.r != 0:
        raise ValueError(f"cannot embed {src} into {dst}")
    if x.field != src:
        raise ValueError("element does not belong to the source field")
    if src == dst:
        return x
    if src.r == 1:
        return dst.elem(x.coeffs[0])
    return _horner(x.coeffs, _embed_root(src, dst), dst.zero())


@dataclass(frozen=True)
class MatrixFq:
    """Dense matrix over a Field; entries row-major."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        assert len(self.entries) == self.rows * self.cols

    @classmethod
    def from_rows(cls, field, rows):
        entries = tuple(field.elem(v) for row in rows for v in row)
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(field, nrows, ncols, entries)

    @classmethod
    def identity(cls, field, n):
        return cls.from_rows(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def elementary(cls, field, n, i, j, value):
        """The n x n identity with entry (i, j) set to value."""
        entries = list(cls.identity(field, n).entries)
        entries[i * n + j] = field.elem(value)
        return cls(field, n, n, tuple(entries))

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __mul__(self, other):
        if not isinstance(other, MatrixFq):
            return NotImplemented
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("matrix dimension or field mismatch")
        out = tuple(sum((self.entry(i, k) * other.entry(k, j) for k in range(self.cols)),
                        self.field.zero())
                    for i in range(self.rows) for j in range(other.cols))
        return MatrixFq(self.field, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times a column vector (tuple of elements)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((self.entry(i, k) * vec[k] for k in range(self.cols)), self.field.zero())
                     for i in range(self.rows))

    def _gauss_jordan(self):
        """(det, inverse or None) of a square matrix, by Gauss-Jordan on [self | I]."""
        n, field = self.rows, self.field
        unit = MatrixFq.identity(field, n)
        work = [list(self.row(i) + unit.row(i)) for i in range(n)]
        det = field.one()
        for col in range(n):
            piv = next((i for i in range(col, n) if work[i][col]), None)
            if piv is None:
                return field.zero(), None
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det
            det = det * work[col][col]
            scale = work[col][col].inverse()
            work[col] = [v * scale if v else v for v in work[col]]
            for i in range(n):
                factor = work[i][col]
                if i != col and factor:
                    work[i] = [a - factor * b if b else a
                               for a, b in zip(work[i], work[col])]
        return det, MatrixFq(field, n, n, tuple(v for row in work for v in row[n:]))

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return self._gauss_jordan()[0]

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        inv = self._gauss_jordan()[1]
        if inv is None:
            raise ValueError("matrix not invertible")
        return inv

    def __str__(self):
        return "[" + "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
        ) + "]"


def _code_dtype(p):
    """int32 while a product of two residues plus a residue fits in it, else int64."""
    return np.dtype(np.int32 if (p - 1) ** 2 + p <= np.iinfo(np.int32).max else np.int64)


@functools.lru_cache(maxsize=None)
def discrete_logs(field):
    """(exp, log): exp[k] is the code of g^k, k < q - 1, and log[c] the k with
    exp[k] = c for nonzero codes c (log[0] = 0), both in the code dtype, where
    g = root_of_unity(field, q - 1).  Read-only; costs q - 1 element products."""
    q, dtype = field.order, _code_dtype(field.p)
    check_budget((2 * dtype.itemsize + 8) * q, f"the discrete logs of GF({q})")
    root, x = root_of_unity(field, q - 1), field.one()
    exp = np.empty(q - 1, dtype=dtype)
    for k in range(q - 1):
        exp[k] = field.encode(x)
        x = x * root
    log = np.zeros(q, dtype=dtype)
    log[exp] = np.arange(q - 1)
    exp.flags.writeable = log.flags.writeable = False
    return exp, log


def check_table_budget(p, r):
    """CapExceeded when the lookup tables of GF(p^r), r > 1, would pass MATRIX_BYTE_CAP.

    The two tables, one q x q temporary, a few vectors and the 64 KiB buffer
    of numpy's gather are charged.  Only p and r are needed, so a caller can
    charge them before make_field's modulus search; r = 1 has no tables.
    """
    if r > 1:
        q = p ** r
        check_budget((3 * q + 16) * q * _code_dtype(p).itemsize + 2 ** 17,
                     f"tabulating GF({q})")


@functools.lru_cache(maxsize=None)
def _tables(field):
    """(add, mul, neg, inv) lookup tables over integer codes, for r > 1 fields.

    Built in the code dtype from :func:`discrete_logs`, with one q x q pass
    per base-p digit for the sums, after :func:`check_table_budget`.
    """
    q, p = field.order, field.p
    dtype = _code_dtype(p)
    check_table_budget(p, field.r)
    exp, log = discrete_logs(field)
    codes = np.arange(q, dtype=dtype)
    add, tmp = np.zeros((q, q), dtype=dtype), np.empty((q, q), dtype=dtype)
    neg = np.zeros(q, dtype=dtype)
    for i in range(field.r):
        digit = codes // p ** i % p
        np.add(digit[:, None], digit[None, :], out=tmp)
        tmp %= p
        tmp *= p ** i
        add += tmp
        neg += -digit % p * p ** i
    np.add(log[:, None], log[None, :], out=tmp)
    tmp %= q - 1
    mul = exp[tmp]  # np.take would first copy int32 indices to intp
    del tmp
    mul[0, :] = mul[:, 0] = 0
    inv = exp[-log % (q - 1)]
    inv[0] = 0
    return add, mul, neg, inv


# Elementwise code arithmetic of one field, on ints and code arrays alike.
# reduce(a) canonicalizes an array in place and returns it; add, mul and neg
# take canonical codes, inv an array of nonzero ones.  dtype is the
# narrowest integer type that holds a product of two codes plus a code, the
# type code matrices are kept in.
CodeArithmetic = collections.namedtuple("CodeArithmetic", "reduce add mul neg inv dtype")


@functools.lru_cache(maxsize=None)
def code_arithmetic(field):
    """The field's CodeArithmetic: residues mod p if r = 1, else :func:`_tables`.

    ValueError when a product of two residues would overflow an int64.
    """
    dtype = _code_dtype(field.p)
    if field.r > 1:
        add, mul, neg, inv = _tables(field)
        return CodeArithmetic(
            reduce=lambda a: a,  # table codes are canonical by construction
            add=lambda a, b: add[a, b], mul=lambda a, b: mul[a, b],
            neg=lambda a: neg[a], inv=lambda a: inv[a], dtype=dtype)
    p = field.p
    if p > _MAX_CODE_PRIME:
        raise ValueError(f"GF({p}) is too large for int64 code arithmetic: "
                         f"(p - 1)^2 must fit in 63 bits, so p <= {_MAX_CODE_PRIME}")

    def residue_reduce(a):
        if a.size and (a.min() < 0 or a.max() >= p):
            np.remainder(a, p, out=a)
        return a

    def residue_mul(a, b):
        out = a * b
        out %= p
        return out

    def residue_inv(a):
        # a^(p - 2) by repeated squaring, on the whole array at once
        base, out, e = np.asarray(a, dtype=np.int64), np.ones(np.shape(a), dtype=np.int64), p - 2
        while e:
            if e & 1:
                out = out * base % p
            base = base * base % p
            e >>= 1
        return out

    return CodeArithmetic(
        reduce=residue_reduce, add=lambda a, b: (a + b) % p,
        mul=residue_mul, neg=lambda a: -a % p, inv=residue_inv, dtype=dtype)


# -- sparse elimination -----------------------------------------------------

MATRIX_BYTE_CAP = 512 * 2 ** 20  # memory budget of one elimination, monomial list or table set
DEFAULT_MONOMIAL_CAP = 10 ** 6  # quotient monomials a brute-force fixed space may list
DEFAULT_POINT_CAP = 10 ** 6  # points an orbit enumeration may label
# What elimination holds at its peak per stored entry: the key, the merged
# copy of a round, the sort buffer and the gathered pivot tails, or, in the
# pivot search, the row starts, lengths and leading columns.  Matrices of
# one-entry rows come closest, at about 46 bytes.
_ENTRY_BYTES = 48


def check_budget(nbytes, what):
    """CapExceeded when an allocation of nbytes would pass MATRIX_BYTE_CAP."""
    if nbytes > MATRIX_BYTE_CAP:
        raise CapExceeded(f"{what} needs {count_str(nbytes >> 20)} MiB, "
                          f"above the budget of {MATRIX_BYTE_CAP >> 20} MiB")


def _segments(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated, in starts' dtype."""
    nz = counts > 0
    starts, counts = starts[nz], counts[nz]
    index = np.ones(int(counts.sum()), dtype=starts.dtype)
    if not len(index):
        return index
    # ones, with a jump at the start of every range, summed up
    ends = np.cumsum(counts)
    index[0] = starts[0]
    index[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(index, out=index)


class CodeEntries:
    """The nonzero entries of an integer-code matrix, one int64 key each.

    A key is row << row_shift | col << col_shift | code, so ascending keys
    list the entries row by row and each row by column.  The constructor
    checks that the shape fits 63 bits and charges ``capacity`` entries
    against MATRIX_BYTE_CAP before it allocates; :meth:`add` appends
    entries, whose codes must be canonical and nonzero, until they fill the
    capacity exactly.  An elimination (:meth:`pivot_columns`,
    :meth:`nullspace`) consumes them.
    Positions and columns are held as ``index``: int32 while the budget
    admits fewer than 2^31 entries, as it does by default.
    """

    def __init__(self, capacity, nrows, ncols, field):
        self.codes, self.ncols = code_arithmetic(field), ncols
        self.col_shift = (field.order - 1).bit_length()
        self.row_shift = self.col_shift + max(ncols - 1, 0).bit_length()
        if self.row_shift + max(nrows - 1, 0).bit_length() > 63:
            raise CapExceeded(f"a {nrows} x {ncols} matrix over GF({field.order}) "
                              f"has more cells than 63-bit entry keys can index")
        self._charge(capacity, f"eliminating a matrix of {capacity} entries")
        self.index = np.int32 if MATRIX_BYTE_CAP < _ENTRY_BYTES * 2 ** 31 else np.int64
        self.keys = np.empty(capacity, dtype=np.int64)
        self.size = 0

    @classmethod
    def from_dense(cls, a, field):
        """The nonzero entries of a dense code array, reduced; a is left as it is."""
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        codes = code_arithmetic(field).reduce(a[rows, cols])
        if not codes.all():
            nz = codes != 0
            rows, cols, codes = rows[nz], cols[nz], codes[nz]
        out = cls(len(codes), *a.shape, field)
        out.add(rows, cols, codes)
        return out

    def add(self, rows, cols, codes):
        out = self.keys[self.size:self.size + len(rows)]
        out[...] = rows
        out <<= self.row_shift - self.col_shift
        out |= cols
        out <<= self.col_shift
        out |= codes
        self.size += len(rows)

    def _reduce(self, keep, heads, factors, src, starts, counts, stored):
        """Replace the live keys by keys[keep] plus, for each i, factors[i] times
        src[starts[i]:starts[i] + counts[i]] moved to the row of keys[heads[i]],
        merged: sorted, the codes of one cell added, zeros dropped.  The
        merged entries and the ``stored`` pivot entries are charged first.
        """
        cs, rs = self.col_shift, self.row_shift
        vmask = (1 << cs) - 1
        kept, total = int(np.count_nonzero(keep)), int(counts.sum())
        self._charge(kept + total + stored,
                     f"eliminating with {kept + total} live and {stored} pivot entries")
        tail = src[_segments(starts, counts)]
        rows = self.keys[heads]
        rows >>= rs
        rows <<= rs
        live = self.keys[keep]
        self.keys = src = keep = None
        vals = tail & vmask
        tail ^= vals
        tail &= (1 << rs) - 1  # the column alone
        tail |= np.repeat(rows, counts)
        tail |= self.codes.mul(vals, np.repeat(factors, counts))
        del vals
        merged = np.concatenate((live, tail))
        del live, tail
        merged.sort(kind="stable")  # two sorted runs: one merge pass
        pos = merged >> cs
        same = np.flatnonzero(pos[1:] == pos[:-1])  # at most two entries share a cell
        del pos
        if len(same):
            sums = self.codes.add(merged[same] & vmask, merged[same + 1] & vmask)
            merged[same] ^= (merged[same] & vmask) ^ sums
            keep = np.ones(len(merged), dtype=bool)
            keep[same + 1] = False
            keep[same[sums == 0]] = False
            merged = merged[keep]
        self.keys = merged

    def _charge(self, entries, what, nbytes=0):
        """check_budget for entries plus nbytes; a column costs an entry, for its pivot."""
        check_budget((entries + self.ncols) * _ENTRY_BYTES + nbytes, what)

    def _rows(self):
        """(start, length) of each row of the sorted live keys."""
        start = np.empty(len(self.keys), dtype=bool)
        start[:1] = True
        row = self.keys >> self.row_shift
        np.not_equal(row[1:], row[:-1], out=start[1:])
        del row
        start = np.flatnonzero(start).astype(self.index)
        return start, np.diff(start, append=self.index(len(self.keys)))

    def _eliminate(self):
        """Echelon form by rounds, consuming the entries: (store, first, length).

        Each round, every live row takes its leading entry; the shortest row
        leading a column without a pivot (the first of equals) becomes that
        column's pivot, normalized to a leading one, which keeps the fill
        down; every other row is reduced by the pivot of its leading column,
        all in one merge.  A matrix takes as many
        rounds as its longest chain of pivot dependencies.  The pivot of
        column c is store[first[c]:first[c] + length[c]] (keys without the
        row, lead first); first[c] is -1 where column c has none.
        """
        codes, cs, rs = self.codes, self.col_shift, self.row_shift
        vmask, cmask = (1 << cs) - 1, (1 << (rs - cs)) - 1
        assert self.size == len(self.keys), "the entries must fill the capacity charged"
        self.keys.sort()
        first = np.full(self.ncols, -1, dtype=self.index)
        length = np.zeros(self.ncols, dtype=self.index)
        store, stored = np.empty(0, dtype=np.int64), 0
        while len(self.keys):
            heads, counts = self._rows()
            lead = self.keys[heads]
            lead >>= cs
            lead = (lead & cmask).astype(self.index)
            # the shortest row leading each column that has no pivot yet is its pivot
            fresh = np.flatnonzero(first[lead] < 0).astype(self.index)
            fresh = fresh[np.lexsort((counts[fresh], lead[fresh]))]
            pick = np.ones(len(fresh), dtype=bool)
            np.not_equal(lead[fresh[1:]], lead[fresh[:-1]], out=pick[1:])
            new = fresh[pick]
            del fresh, pick
            taken = _segments(heads[new], counts[new])
            if stored + len(taken) > len(store):
                store = np.resize(store, max(stored + len(taken), 2 * len(store)))
            piv = store[stored:stored + len(taken)]
            np.take(self.keys, taken, out=piv)
            scale = np.repeat(codes.inv(self.keys[heads[new]] & vmask), counts[new])
            piv ^= (piv & vmask) ^ codes.mul(scale, piv & vmask)
            piv &= (1 << rs) - 1
            del scale, piv
            first[lead[new]] = stored + np.cumsum(counts[new]) - counts[new]
            length[lead[new]] = counts[new]
            stored += len(taken)
            # every other row sheds its leading entry for its column's pivot tail
            keep = np.ones(len(self.keys), dtype=bool)
            keep[taken] = False
            keep[heads] = False
            rest = np.ones(len(heads), dtype=bool)
            rest[new] = False
            heads, lead = heads[rest], lead[rest]
            del taken, rest, new, counts
            self._reduce(keep, heads, codes.neg(self.keys[heads] & vmask),
                         store, first[lead] + 1, length[lead] - 1, stored)
        return store, first, length

    def pivot_columns(self):
        """The pivot columns of the echelon form, ascending: as many as the rank."""
        return np.flatnonzero(self._eliminate()[1] >= 0)

    def _back_reduce(self):
        """The pivot rows, back-reduced to the reduced echelon form: (keys, pivot columns).

        A row is numbered by the rank of its pivot column.  In each round,
        every row with a nonzero entry in another pivot column sheds the
        leftmost such entry for the pivot row of that column, which only
        touches columns further right.
        """
        codes, cs, rs = self.codes, self.col_shift, self.row_shift
        vmask, cmask = (1 << cs) - 1, (1 << (rs - cs)) - 1
        store, first, length = self._eliminate()
        pcols = np.flatnonzero(first >= 0)
        rank_of = np.full(self.ncols, -1, dtype=self.index)
        rank_of[pcols] = np.arange(len(pcols))
        self.keys = store[_segments(first[pcols], length[pcols])]
        self.keys |= np.repeat(np.arange(len(pcols), dtype=np.int64) << rs, length[pcols])
        del store
        while True:
            heads, counts = self._rows()  # one row per pivot
            live = self.keys
            owner = rank_of[live >> cs & cmask]
            row = live >> rs
            dirty = np.flatnonzero((owner >= 0) & (owner != row))
            if not len(dirty):
                return live, pcols
            dirty = dirty[np.r_[True, row[dirty[1:]] != row[dirty[:-1]]]]  # leftmost
            keep = np.ones(len(live), dtype=bool)
            keep[dirty] = False
            src = owner[dirty]
            self._reduce(keep, heads[row[dirty]], codes.neg(live[dirty] & vmask),
                         live, heads[src] + 1, counts[src] - 1, 0)

    def nullspace(self):
        """Right-nullspace basis in the canonical parameterization: one row per
        free column, ascending, with a one there and zeros at the other free
        columns."""
        live, pcols = self._back_reduce()
        cs, rs, dtype = self.col_shift, self.row_shift, self.codes.dtype
        free = np.setdiff1d(np.arange(self.ncols), pcols)
        self._charge(len(live), f"a {len(free)} x {self.ncols} nullspace basis",
                     len(free) * self.ncols * np.dtype(dtype).itemsize)
        basis = np.zeros((len(free), self.ncols), dtype=dtype)
        basis[np.arange(len(free)), free] = 1
        slot = np.full(self.ncols, -1, dtype=self.index)  # basis row of each free column
        slot[free] = np.arange(len(free))
        slot = slot[live >> cs & (1 << (rs - cs)) - 1]
        hit = slot >= 0
        basis[slot[hit], pcols[live[hit] >> rs]] = self.codes.neg(live[hit] & (1 << cs) - 1)
        return basis


def nullspace_codes(a, field):
    """Right-nullspace basis of an integer-code matrix, canonical parameterization.

    Returns a (k, cols) array; one row per free column, ascending.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return CodeEntries.from_dense(a, field).nullspace()


def rank_codes(a, field):
    """Rank of an integer-code matrix: its echelon form, without back-reduction."""
    a = np.asarray(a)
    if a.ndim != 2 or 0 in a.shape:
        return 0
    return len(CodeEntries.from_dense(a, field).pivot_columns())


def nullspace(m):
    """Basis of the right nullspace of a MatrixFq, canonical free-variable form."""
    codes = np.array([m.field.encode(v) for v in m.entries], dtype=np.int64)
    basis = nullspace_codes(codes.reshape(m.rows, m.cols), m.field)
    return [tuple(m.field.decode(int(c)) for c in row) for row in basis]
