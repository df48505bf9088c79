"""Level-N string functions three ways, with the bare-sum ratio made explicit."""

from fractions import Fraction

from qident.qpoly import ONE, Truncation, mul, render, truncated_equal
from qident.series import (
    StringFunctionQuery,
    string_fermionic,
    string_lp,
    string_spinon,
)

D = 14
t = Truncation(D)

print(f"spinon route == fermionic route, coefficients up to q^{D}:")
for n, ell, m in [(1, 0, 0), (2, 1, 3), (2, 2, 2), (3, 1, 5), (3, 3, 3)]:
    sigma = 1 if ell == n else 0
    sq = StringFunctionQuery(n, m, ell, sigma, t)
    sp, fe = string_spinon(sq), string_fermionic(sq)
    print(f"  N={n} ell={ell} m={m}  agree={truncated_equal(sp, fe, t)}")

sq = StringFunctionQuery(2, 0, 0, 0, Truncation(8))
print()
print("N=2 m=0 ell=0 expansion:", render(string_spinon(sq)))

# on the boundary ell in {0, N} the principal form joins in
sq = StringFunctionQuery(3, 3, 3, 1, t)
print()
print(
    "boundary node N=3 ell=m=3: principal route agrees:",
    truncated_equal(string_lp(sq), string_spinon(sq), t),
)

# strip the normalizing prefactors and the two routes differ by one monomial
n, ell, m = 2, 0, 4
sq = StringFunctionQuery(n, m, ell, 0, t)
chi = Fraction((ell + 1) ** 2, 4 * (n + 2)) - Fraction(1, 8)
sp_exp, fe_exp = Fraction(m * m, 4 * n) - chi, Fraction(ell * ell, 4 * n) - chi
bare_sp = string_spinon(sq).times_monomial(1, sp_exp.numerator, sp_exp.denominator)
bare_fe = string_fermionic(sq).times_monomial(1, fe_exp.numerator, fe_exp.denominator)
ratio = Fraction(ell * ell - m * m, 4 * n)
cap = Truncation(D - 2 - abs(ratio))
shifted_sp = bare_sp.times_monomial(1, ratio.numerator, ratio.denominator)
same = truncated_equal(mul(bare_fe, ONE, cap), mul(shifted_sp, ONE, cap), cap)
print()
print(f"bare sums at N={n} ell={ell} m={m}: fermionic = q^({ratio}) * spinon: {same}")
