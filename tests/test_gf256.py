import numpy as np
import pytest

from qdsnet.gf256 import (INV, MUL, Poly, gf_inv, is_irreducible, poly_divmod,
                          poly_gcd, poly_mod)

from helpers import (ben_or_irreducible, build_log_tables,
                     count_irreducible_degree2, has_root, log_table_mul,
                     slow_gf_mul, slow_irreducible_low_degree,
                     slow_poly_divmod, slow_poly_mul)


def test_mul_table_against_log_oracle():
    exp, log = build_log_tables()
    for a in range(256):
        row = MUL[a]
        for b in range(256):
            assert row[b] == log_table_mul(a, b, exp, log)


def test_mul_agrees_with_shift_and_add_sample():
    rng = np.random.default_rng(1)
    for a, b in rng.integers(0, 256, (500, 2)):
        assert MUL[a, b] == slow_gf_mul(int(a), int(b))


def test_field_axioms_spot():
    rng = np.random.default_rng(2)
    trips = rng.integers(0, 256, (200, 3))
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        assert MUL[a, b] == MUL[b, a]
        assert MUL[a, MUL[b, c]] == MUL[MUL[a, b], c]
        # distributivity over xor-addition
        assert MUL[a, b ^ c] == MUL[a, b] ^ MUL[a, c]
    for a in range(256):
        assert MUL[a, 1] == a
        assert MUL[a, 0] == 0


def test_inverse_table():
    for a in range(1, 256):
        assert MUL[a, gf_inv(a)] == 1
    assert INV[0] == 0
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_poly_normalization():
    p = Poly([0, 0, 3, 1])
    assert p.degree == 1
    assert list(p.coeffs) == [3, 1]
    z = Poly([0, 0])
    assert z.is_zero() and z.degree == -1
    assert Poly([1, 2, 3]).is_monic()
    assert not Poly([2, 2, 3]).is_monic()


def _mul(a: Poly, b: Poly) -> Poly:
    return Poly(slow_poly_mul(a.coeffs.tolist(), b.coeffs.tolist()))


def test_poly_divmod_reconstruction():
    rng = np.random.default_rng(4)
    for _ in range(500):
        num = Poly(list(rng.integers(0, 256, rng.integers(1, 16))))
        den = Poly(list(rng.integers(0, 256, rng.integers(1, 8))))
        if den.is_zero():
            continue
        q, r = poly_divmod(num, den)
        assert r.degree < den.degree
        recon = _mul(q, den)
        recon = Poly(np.concatenate([
            np.zeros(max(0, len(r.coeffs) - len(recon.coeffs)), np.uint8),
            recon.coeffs]))
        back = np.zeros(max(len(recon.coeffs), len(r.coeffs)), np.uint8)
        back[len(back) - len(recon.coeffs):] ^= recon.coeffs
        back[len(back) - len(r.coeffs):] ^= r.coeffs
        assert Poly(back) == num


def test_poly_mod_against_long_division_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        num = list(rng.integers(0, 256, rng.integers(1, 20)))
        den = list(rng.integers(0, 256, rng.integers(2, 8)))
        if not any(den):
            continue
        got = poly_mod(Poly(num), Poly(den))
        _, want = slow_poly_divmod([int(x) for x in num],
                                   [int(x) for x in den])
        assert list(got.coeffs) == want


def test_poly_gcd_divides_both():
    rng = np.random.default_rng(6)
    for _ in range(60):
        a = Poly(list(rng.integers(0, 256, rng.integers(2, 7))))
        b = Poly(list(rng.integers(0, 256, rng.integers(2, 7))))
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(a, b)
        assert poly_mod(a, g).is_zero()
        assert poly_mod(b, g).is_zero()


def test_gcd_detects_common_factor():
    f = Poly([1, 7])  # x + 7
    a = _mul(f, Poly([1, 3, 9]))
    b = _mul(f, Poly([1, 200]))
    g = poly_gcd(a, b)
    assert poly_mod(g, f).is_zero()
    assert g.degree >= 1


def test_irreducibility_against_root_oracle_low_degrees():
    rng = np.random.default_rng(7)
    for deg in (2, 3):
        for _ in range(150):
            coeffs = [1] + [int(x) for x in rng.integers(0, 256, deg)]
            assert is_irreducible(Poly(coeffs)) == \
                slow_irreducible_low_degree(coeffs)


def test_irreducibility_known_cases():
    assert is_irreducible(Poly([1, 5]))          # any monic linear
    assert is_irreducible(Poly([1, 0]))          # x itself is linear
    assert not is_irreducible(Poly([1, 0, 0]))   # x^2
    # (x + 1)(x + 2) = x^2 + 3x + 2
    assert not is_irreducible(Poly([1, 3, 2]))
    with pytest.raises(ValueError):
        is_irreducible(Poly([7, 1, 1]))          # not monic
    with pytest.raises(ValueError):
        is_irreducible(Poly([42]))               # constant


def test_degree2_irreducible_count_fast_oracle():
    assert count_irreducible_degree2() == 32640


def test_is_irreducible_agrees_with_root_search_sample():
    # degree 2 is reducible exactly when it has a root (c == 0 gives
    # the root 0, so that case is covered too)
    from helpers import has_root
    rng = np.random.default_rng(8)
    for b, c in rng.integers(0, 256, (300, 2)):
        p = Poly([1, int(b), int(c)])
        assert is_irreducible(p) == (not has_root([1, int(b), int(c)]))


def _irreducibles(deg, count, rng):
    found = []
    while len(found) < count:
        c = [1] + [int(x) for x in rng.integers(0, 256, deg)]
        if c not in found and ben_or_irreducible(c):
            found.append(c)
    return found


def test_is_irreducible_agrees_with_ben_or_sample():
    rng = np.random.default_rng(9)
    for deg in (4, 5, 6, 7, 8, 9):
        for _ in range(8):
            coeffs = [1] + [int(x) for x in rng.integers(0, 256, deg)]
            assert is_irreducible(Poly(coeffs)) == ben_or_irreducible(coeffs)
        for coeffs in _irreducibles(deg, 2, rng):
            assert is_irreducible(Poly(coeffs))


def test_root_free_reducible_polynomials_are_rejected():
    # no root, so each case gets past the root test and is decided by
    # the power chain (a repeated factor or a factor degree not dividing
    # d) or by the gcds (every factor degree divides d)
    rng = np.random.default_rng(12)
    q1, q2 = _irreducibles(2, 2, rng)
    c1, c2 = _irreducibles(3, 2, rng)
    cases = {
        "two quadratics": slow_poly_mul(q1, q2),
        "quadratic squared": slow_poly_mul(q1, q1),
        "quadratic times cubic": slow_poly_mul(q1, c1),
        "two cubics": slow_poly_mul(c1, c2),
        "quadratic times two cubics": slow_poly_mul(q1, slow_poly_mul(c1, c2)),
    }
    for name, coeffs in cases.items():
        assert not has_root(coeffs), name
        assert not is_irreducible(Poly(coeffs)), name
