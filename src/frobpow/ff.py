"""Exact arithmetic in prime fields GF(p) and extensions GF(p^r).

Fields are constructed deterministically so that serialized output is
reproducible run to run: the modulus of GF(p^r) is the lexicographically
smallest monic irreducible polynomial of degree r over GF(p) (coefficient
tuples compared low-degree first), and roots of unity are the first elements
of the required order in the fixed element enumeration.

Elements are immutable values stored fully reduced; equality is coefficient
equality.  Matrices are dense.  The row-reduction kernel switches between
direct residue arithmetic (r = 1) and precomputed lookup tables (r > 1) so
the heavy fixed-space computations elsewhere in the package run on plain
integer arrays end to end.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

_TABLE_LIMIT = 4096  # largest field order for which lookup tables are built


class CapExceeded(RuntimeError):
    """An enumeration or matrix crossed its configured safety cap."""


def _small_divisor(n):
    """Return a nontrivial divisor of n, or None if n is prime."""
    if n < 2:
        return n
    if n % 2 == 0:
        return 2 if n > 2 else None
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return None


def factor_prime_power(q):
    """(p, r) with q = p^r, or ValueError if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _small_divisor(q) or q
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    if q != 1:
        raise ValueError(f"{q * p ** r} is not a prime power")
    return p, r


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


def _ppowmod(base, e, mod, p):
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
        d = _small_divisor(self.p)
        if d is not None:
            raise ValueError(f"{self.p} is not prime (divisible by {d})")
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
            return FieldElem(self, (value % self.p,) + (0,) * (self.r - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.r:
            raise ValueError(f"too many coefficients for GF({self.order})")
        return FieldElem(self, coeffs + (0,) * (self.r - len(coeffs)))

    def decode(self, code):
        """Inverse of :meth:`encode`: base-p digits, low digit first."""
        coeffs = []
        for _ in range(self.r):
            code, c = divmod(code, self.p)
            coeffs.append(c)
        return FieldElem(self, tuple(coeffs))

    def encode(self, elem):
        """Pack an element into an integer code sum(c_i * p^i)."""
        code = 0
        for c in reversed(elem.coeffs):
            code = code * self.p + c
        return code

    def elements(self):
        """All elements in the canonical enumeration (ascending integer code)."""
        return (self.decode(c) for c in range(self.order))

    def elements_lex(self):
        """All elements in coefficient-lex order (c_0 most significant)."""
        for coeffs in itertools.product(range(self.p), repeat=self.r):
            yield FieldElem(self, coeffs)

    def __str__(self):
        mod = ",".join(str(c) for c in self.modulus)
        return f"GF({self.order}; modulus=[{mod}])"

    __repr__ = __str__


@functools.lru_cache(maxsize=None)
def make_field(p, r=1):
    """The canonical GF(p^r): lexicographically smallest irreducible modulus.

    >>> make_field(2, 2).modulus
    (1, 1, 1)
    """
    if r == 1:
        return Field(p, 1, (0, 1))
    d = _small_divisor(p)
    if d is not None:
        raise ValueError(f"{p} is not prime (divisible by {d})")
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    for tail in itertools.product(range(p), repeat=r):
        mod = list(tail) + [1]
        if _is_irreducible(mod, p):
            return Field(p, r, tuple(mod))
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


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
        prod = _pmulmod(list(self.coeffs), list(o.coeffs), list(f.modulus), f.p)
        return FieldElem(f, tuple(prod) + (0,) * (f.r - len(prod)))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        if self.field.r == 1:
            return FieldElem(self.field, (pow(self.coeffs[0], self.field.p - 2, self.field.p),))
        return self ** (self.field.order - 2)

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
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def order(self):
        """Multiplicative order, by exhaustive powering."""
        if not self:
            raise ValueError("zero has no multiplicative order")
        one = self.field.one()
        x, k = self, 1
        while x != one:
            x = x * self
            k += 1
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

    def to_json(self):
        return list(self.coeffs)

    def __str__(self):
        if self.field.r == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"{self}:{self.field}"


def root_of_unity(field, e):
    """The first element in coefficient-lex order of exact multiplicative order e.

    >>> root_of_unity(make_field(5), 4).coeffs
    (2,)
    """
    if e < 1 or (field.order - 1) % e != 0:
        raise ValueError(f"no primitive {e}-th root of unity in F_{{{field.order}}}")
    for x in field.elements_lex():
        if x and x.order() == e:
            return x
    raise AssertionError("unreachable: the multiplicative group is cyclic")


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
    for z in dst.elements_lex():
        acc = dst.zero()
        for c in reversed(src.modulus):
            acc = acc * z + c
        if not acc:
            return z
    raise AssertionError("unreachable: subfields of matching degree always embed")


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
    z = _embed_root(src, dst)
    acc = dst.zero()
    for c in reversed(x.coeffs):
        acc = acc * z + c
    return acc


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

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __mul__(self, other):
        if not isinstance(other, MatrixFq):
            return NotImplemented
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("matrix dimension or field mismatch")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.field.zero()
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                out.append(acc)
        return MatrixFq(self.field, self.rows, other.cols, tuple(out))

    def apply(self, vec):
        """Matrix times a column vector (tuple of elements)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            functools.reduce(
                lambda a, b: a + b,
                (self.entry(i, k) * vec[k] for k in range(self.cols)),
                self.field.zero(),
            )
            for i in range(self.rows)
        )

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        work = [list(self.row(i)) for i in range(self.rows)]
        out = self.field.one()
        for col in range(self.cols):
            piv = next((i for i in range(col, self.rows) if work[i][col]), None)
            if piv is None:
                return self.field.zero()
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                out = -out
            out = out * work[col][col]
            inv = work[col][col].inverse()
            for i in range(col + 1, self.rows):
                factor = work[i][col] * inv
                if factor:
                    for j in range(col, self.cols):
                        work[i][j] = work[i][j] - factor * work[col][j]
        return out

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = np.zeros((n, 2 * n), dtype=np.int64)
        aug[:, :n] = _codes_matrix(self)
        aug[np.arange(n), n + np.arange(n)] = 1  # the code of one in every field
        pivots = _rref_codes(aug, self.field)
        if pivots != list(range(n)):
            raise ValueError("matrix not invertible")
        inv = aug[:, n:]
        entries = tuple(self.field.decode(int(c)) for c in inv.ravel())
        return MatrixFq(self.field, n, n, entries)

    def to_json(self):
        return [[self.entry(i, j).to_json() for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self):
        return "[" + "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
        ) + "]"


def _codes_matrix(m):
    return np.array(
        [[m.field.encode(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)],
        dtype=np.int64,
    ).reshape(m.rows, m.cols)


@functools.lru_cache(maxsize=None)
def _tables(field):
    """(add, mul, neg, inv) lookup tables over integer codes, for r > 1 fields."""
    q = field.order
    if q > _TABLE_LIMIT:
        raise CapExceeded(f"field GF({q}) too large for table arithmetic (limit {_TABLE_LIMIT})")
    elems = list(field.elements())
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    neg = np.zeros(q, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    enc = field.encode
    for i, a in enumerate(elems):
        neg[i] = enc(-a)
        if a:
            inv[i] = enc(a.inverse())
        for j, b in enumerate(elems[: i + 1]):
            s = enc(a + b)
            m = enc(a * b)
            add[i, j] = add[j, i] = s
            mul[i, j] = mul[j, i] = m
    return add, mul, neg, inv


def _rref_codes(a, field):
    """In-place reduced row echelon form on an integer-code matrix; pivot columns."""
    rows, cols = a.shape
    pivots = []
    if rows == 0 or cols == 0:
        return pivots
    if field.r == 1:
        p = field.p
        a %= p
        rank = 0
        for col in range(cols):
            if rank == rows:
                break
            nz = np.nonzero(a[rank:, col])[0]
            if nz.size == 0:
                continue
            piv = rank + int(nz[0])
            if piv != rank:
                a[[rank, piv]] = a[[piv, rank]]
            a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
            other = np.nonzero(a[:, col])[0]
            other = other[other != rank]
            if other.size:
                a[other] = (a[other] - np.outer(a[other, col], a[rank])) % p
            pivots.append(col)
            rank += 1
        return pivots
    add, mul, neg, inv = _tables(field)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank] = mul[inv[a[rank, col]], a[rank]]
        other = np.nonzero(a[:, col])[0]
        other = other[other != rank]
        if other.size:
            scale = neg[a[other, col]]
            a[other] = add[a[other], mul[scale[:, None], a[rank][None, :]]]
        pivots.append(col)
        rank += 1
    return pivots


def nullspace_codes(a, field):
    """Right-nullspace basis of an integer-code matrix, canonical parameterization.

    Returns a (k, cols) array; one row per free column, ascending.
    """
    a = np.array(a, dtype=np.int64, copy=True)
    rows, cols = a.shape if a.ndim == 2 else (0, 0)
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    pivots = _rref_codes(a, field)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if field.r == 1:
        p = field.p
        for k, fc in enumerate(free):
            basis[k, fc] = 1
            for i, pc in enumerate(pivots):
                basis[k, pc] = -a[i, fc] % p
    else:
        _, _, neg, _ = _tables(field)
        for k, fc in enumerate(free):
            basis[k, fc] = 1
            for i, pc in enumerate(pivots):
                basis[k, pc] = neg[a[i, fc]]
    return basis


def rank_codes(a, field):
    a = np.array(a, dtype=np.int64, copy=True)
    if a.ndim != 2 or 0 in a.shape:
        return 0
    return len(_rref_codes(a, field))


def nullspace(m):
    """Basis of the right nullspace of a MatrixFq, canonical free-variable form."""
    codes = _codes_matrix(m) if m.rows else np.zeros((0, m.cols), dtype=np.int64)
    basis = nullspace_codes(codes, m.field)
    return [tuple(m.field.decode(int(c)) for c in row) for row in basis]
