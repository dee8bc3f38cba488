"""The coefficient ring Z/p^n.

ModulusContext is the ring: an odd prime p and an exponent n >= 1, with
p^n capped to a 63-bit word, and the split of a residue as unit * p^v that
every division in the package goes through.  is_prime is the deterministic
primality test behind it, which the command line also uses to check its
prime arguments.  _Frozen is the base of the package's validated values:
slots, equality and hashing by named fields, no assignment after
__init__, and copies and pickles rebuilt through __init__.
"""

from __future__ import annotations

from .errors import InputError

MAX_MODULUS = 2**63 - 1


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every m < 3.3 * 10^24 (Sorenson and Webster, 2015), far above
# MAX_MODULUS.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < 3.3 * 10^24."""
    if m < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class _Frozen:
    """An immutable value with slots: equal and hashed by the fields named
    in _compared, shown by repr with every slot.  __init__ validates and
    sets the slots with object.__setattr__; any later assignment or
    deletion raises AttributeError."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _compared_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared_values() == other._compared_values()

    def __hash__(self):
        return hash(self._compared_values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, which takes the
        # compared fields and validates them again.
        return type(self), self._compared_values()


class ModulusContext(_Frozen):
    """The coefficient ring Z/p^n for an odd prime p and exponent n >= 1;
    equal and hashed by (p, n), with modulus = p^n derived."""

    __slots__ = ("p", "n", "modulus")
    _compared = ("p", "n")

    def __init__(self, p: int, n: int):
        if p < 3 or (p <= MAX_MODULUS and not is_prime(p)):
            raise InputError(f"p = {p} must be an odd prime >= 3")
        if n < 1:
            raise InputError(f"exponent n = {n} must be >= 1")
        # p >= 3, so p^n passes MAX_MODULUS once n >= 40: never raise p to a
        # huge n, and never test a p above MAX_MODULUS for primality.
        if p > MAX_MODULUS or n >= 64 or p**n > MAX_MODULUS:
            raise InputError(f"modulus p^n = {p}^{n} does not fit a 63-bit word")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", p**n)

    def valuation(self, x: int) -> tuple[int, int]:
        """Split a residue as unit * p^v; the zero residue gives (n, 1)."""
        x %= self.modulus
        if x == 0:
            return self.n, 1
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v, x

    def unit_inverse(self, u: int) -> int:
        u %= self.modulus
        if u % self.p == 0:
            raise InputError(f"{u} is not a unit modulo {self.modulus}")
        return pow(u, -1, self.modulus)
