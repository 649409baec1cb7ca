"""Arithmetic over GF(256) and polynomials with GF(256) coefficients.

The field is GF(2)[x] / (x^8 + x^4 + x^3 + x + 1), i.e. reduction
polynomial 0x11B, with bytes encoding field elements in the usual
bit-per-coefficient way.  A full 256x256 product table is built once at
import so that bulk polynomial work reduces to numpy fancy indexing.

Polynomials over the field are stored highest-order coefficient first.
They back the message digests: digests are remainders modulo an
irreducible polynomial, so this module also provides deterministic
irreducibility testing (Rabin's algorithm, with the Frobenius map as a
matrix over the field).
"""

from __future__ import annotations

import numpy as np

REDUCTION_POLY = 0x11B


def _build_mul_table() -> np.ndarray:
    acc = np.zeros((256, 256), dtype=np.uint16)
    a = np.repeat(np.arange(256, dtype=np.uint16)[:, None], 256, axis=1)
    b = np.arange(256, dtype=np.uint16)[None, :].repeat(256, axis=0)
    low = np.uint16(REDUCTION_POLY & 0xFF)
    zero = np.uint16(0)
    for _ in range(8):
        acc ^= np.where(b & 1, a, zero)
        b >>= 1
        carry = a & 0x80
        a = (a << 1) & 0xFF
        a ^= np.where(carry, low, zero)
    return acc.astype(np.uint8)


MUL = _build_mul_table()
_MUL_FLAT = MUL.ravel()

# _POWERS[k, a - 1] = a^k for every nonzero a and k = 0 .. 254 (a^255 == 1)
_POWERS = np.ones((255, 255), dtype=np.intp)
for _k in range(1, 255):
    _POWERS[_k] = MUL[np.arange(1, 256), _POWERS[_k - 1]]
del _k

# inverse table: MUL[a, INV[a]] == 1 for a != 0
INV = np.zeros(256, dtype=np.uint8)
_r, _c = np.nonzero(MUL == 1)
INV[_r] = _c
del _r, _c


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises ZeroDivisionError for 0."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(INV[a])


class Poly:
    """Polynomial over GF(256), coefficients highest-order first.

    Instances are normalized on construction: leading zeros are trimmed,
    and the zero polynomial is the empty coefficient array with the
    conventional degree -1.  Treat instances as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.uint8).ravel()
        nz = np.nonzero(arr)[0]
        if nz.size == 0:
            arr = arr[:0]
        else:
            arr = arr[nz[0]:]
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def is_monic(self) -> bool:
        return len(self.coeffs) > 0 and self.coeffs[0] == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self) -> int:
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        return f"Poly(deg={self.degree}, {bytes(self.coeffs).hex()})"


X = Poly([1, 0])
ONE = Poly([1])
ZERO = Poly([])


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder; raises ZeroDivisionError on zero divisor."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.degree < den.degree:
        return ZERO, num
    r = num.coeffs.copy()
    dl = den.coeffs
    inv_lead = gf_inv(int(dl[0]))
    steps = num.degree - den.degree + 1
    q = np.zeros(steps, dtype=np.uint8)
    for i in range(steps):
        lead = r[i]
        if lead:
            qc = MUL[lead, inv_lead]
            q[i] = qc
            r[i:i + len(dl)] ^= MUL[qc, dl]
    return Poly(q), Poly(r)


def poly_mod(num: Poly, den: Poly) -> Poly:
    return poly_divmod(num, den)[1]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    if a.is_zero():
        return a
    lead = int(a.coeffs[0])
    if lead != 1:
        return Poly(MUL[gf_inv(lead), a.coeffs])
    return a


def _x_powers(p: Poly, n: int) -> np.ndarray:
    """rows[j] = x^j mod p for j = 0 .. n-1, as length-d residues
    (highest-order first).

    Each residue is held as one Python integer with a byte per
    coefficient, so multiplying by x is a shift plus one table entry:
    x^d == p_low modulo p in characteristic 2, and fold[c] = c * p_low.
    """
    d = p.degree
    table = MUL[:, p.coeffs[1:]].tobytes()
    fold = [int.from_bytes(table[i:i + d], "big") for i in range(0, 256 * d, d)]
    top, mask = 8 * (d - 1), (1 << 8 * d) - 1
    v, powers = 1, []
    for _ in range(n):
        powers.append(v.to_bytes(d, "big"))
        v = ((v << 8) & mask) ^ fold[v >> top]
    return np.frombuffer(b"".join(powers), dtype=np.uint8).reshape(n, d)


def _apply(images: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The GF(256)-linear map sending basis residue i to images[i] (an
    np.intp array), applied to v: one lookup of MUL[v[i], images[i]]
    for all i at once and an XOR reduction."""
    idx = images + (v.astype(np.intp) << 8)[:, None]
    return np.bitwise_xor.reduce(_MUL_FLAT.take(idx), axis=0)


def _frobenius_images(p: Poly) -> np.ndarray:
    """images[i] = (x^(d-1-i))^256 mod p, for i = 0 .. d-1, as np.intp.

    v -> v^256 is linear over GF(256) on residues modulo p, since
    a^256 == a for every field element; with h = x^256 mod p, the image
    of x^j is h^j.  The powers of h come from the linear map of
    multiplication by h, whose images are x^j * h = x^(256+j).
    """
    d = p.degree
    times_h = _x_powers(p, 256 + d)[256:][::-1].astype(np.intp)
    images = np.empty((d, d), dtype=np.intp)
    images[-1] = 0
    images[-1, -1] = 1
    for i in range(d - 2, -1, -1):
        images[i] = _apply(times_h, images[i + 1])
    return images


def _has_root(p: Poly) -> bool:
    """True when p(a) == 0 for some field element a: p evaluated at all
    255 nonzero elements at once, and at zero through its constant."""
    c = p.coeffs
    if c[-1] == 0:
        return True
    exps = np.arange(p.degree, -1, -1) % 255
    return not _apply(_POWERS[exps], c).all()


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(p: Poly) -> bool:
    """Rabin irreducibility test over GF(256).

    p must be monic of degree >= 1.  Requires x^(q^d) == x (mod p) with
    q = 256, and gcd(x^(q^(d/r)) - x, p) == 1 for every prime r | d.
    The powers x^(q^k) come from d applications of the Frobenius matrix.
    Two cheaper steps come first and give the same verdict: a
    polynomial of degree >= 2 with a root is reducible (about 63% of
    candidates), and the gcds, which cost more than the whole power
    chain, run only once x^(q^d) == x holds.
    """
    if not p.is_monic() or p.degree < 1:
        raise ValueError("irreducibility test needs a monic polynomial of degree >= 1")
    d = p.degree
    if d == 1:
        return True
    if _has_root(p):
        return False

    frobenius = _frobenius_images(p)
    x_vec = np.zeros(d, dtype=np.uint8)
    x_vec[d - 2] = 1
    checks = {d // r for r in _prime_factors(d)}
    saved = []
    res = x_vec
    for k in range(1, d + 1):
        res = _apply(frobenius, res)
        if k in checks:
            saved.append(res)
    if not np.array_equal(res, x_vec):
        return False
    return all(poly_gcd(Poly(s ^ x_vec), p).degree == 0 for s in saved)
