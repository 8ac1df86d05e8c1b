"""Exact scalar arithmetic: the rationals and prime fields.

Every computation in the engine runs over exactly one field object.  Field
elements are plain values supporting ``+ - *``, ``==`` and ``bool``.  A
rational is an ``int`` or a ``fractions.Fraction``, and both types occur for
the same integral value: parsing and ``of`` give ints, but ``Fraction``
arithmetic returns integral Fractions (in products, eliminations and the
bases read off them).  No result may depend on which type a value has: the
two mix exactly, and agree in ``==``, ``hash`` and ``str`` on integral
values.  An element of a prime field is an :class:`FpElem`.
Division goes only through :meth:`Field.inv`, because ``int / int`` is a
float; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextError, SchemaError


class FpElem:
    """An element of F_p.  Arithmetic reduces modulo p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _check(self, other: "FpElem") -> None:
        if not isinstance(other, FpElem) or other.p != self.p:
            raise ContextError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return FpElem(self.v + other.v, self.p)

    def __sub__(self, other):
        self._check(other)
        return FpElem(self.v - other.v, self.p)

    def __mul__(self, other):
        self._check(other)
        return FpElem(self.v * other.v, self.p)

    def __truediv__(self, other):
        self._check(other)
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElem(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElem(-self.v, self.p)

    def __eq__(self, other):
        return isinstance(other, FpElem) and other.p == self.p and other.v == self.v

    def __hash__(self):
        # equal elements share p, so v alone keeps the ==/hash contract
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class Field:
    """Context object carrying the field tag and element constructors."""

    name: str

    def of(self, n: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.of(0)

    @property
    def one(self):
        return self.of(1)

    def parse(self, s: str):
        raise NotImplementedError

    def inv(self, x):
        """The inverse of a nonzero x; ZeroDivisionError for zero."""
        return self.one / x

    def to_str(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class RationalField(Field):
    name = "Q"

    def of(self, n: int):
        if type(n) is not int:
            raise ContextError(f"a rational is built from an int, not {n!r}")
        return n

    def parse(self, s: str):
        x = Fraction(s)
        return x.numerator if x.denominator == 1 else x

    def inv(self, x):
        """An int for a unit numerator: +-1 returns itself, so a unit pivot
        keeps its row integral.  Otherwise a Fraction."""
        n, d = x.numerator, x.denominator
        if n in (1, -1):
            return n * d
        return Fraction(d, n)


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with ``_MR_BASES``; exact for n below ``_MR_BOUND``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ValueError(f"{p} is beyond the exact primality bound {_MR_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def of(self, n: int):
        return FpElem(n, self.p)

    def parse(self, s: str):
        return FpElem(int(s), self.p)

    def to_str(self, x) -> str:
        return str(x.v)


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str) -> Field:
    """Resolve a serialized field tag ("Q" or "Fp:<p>")."""
    if not isinstance(name, str):
        raise SchemaError(f"field tag must be a string, not {name!r}")
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            return GF(int(name[3:]))
        except ValueError as e:
            raise SchemaError(f"bad field tag {name!r}: {e}") from e
    raise SchemaError(f"unknown field tag {name!r}")
