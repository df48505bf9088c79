"""Partition generating functions against truncated infinite products."""

from qident.qpoly import (
    ONE,
    QPoly,
    Truncation,
    euler_inverse_truncated,
    mul,
    render,
    truncated_equal,
)
from qident.series import durfee_sides, product_side, sum_side

t = Truncation(30)

# 1/(q)_inf expanded by one division pass per factor vs the textbook partition recurrence
series = euler_inverse_truncated(t)
table = [1] + [0] * 30
for part in range(1, 31):
    for total in range(part, 31):
        table[total] += table[total - part]
dp = QPoly({k: v for k, v in enumerate(table)})
print("partition numbers p(0..12): ", table[:13])
print("division passes match DP:  ", series == dp)

print()
print("sum-vs-product pairs to q^30:")
for family in ("ising", "rr", "slater"):
    s = sum_side(family, t)
    p = product_side(family, t)
    print(f"  {family:7s} equal={s == p}")
print("  rr product:", render(mul(product_side("rr", Truncation(12)), ONE, Truncation(12))))

# the rectangle decomposition of 1/(q)_inf, one offset at a time
print()
cap = Truncation(25)
for ell in (0, 1, 2):
    lhs, rhs = durfee_sides(ell, cap)
    print(f"rectangle decomposition at offset {ell}: {truncated_equal(lhs, rhs, cap)}")
