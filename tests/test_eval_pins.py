"""Rendered values of the lattice-sum displays, pinned term by term.

A verify row prints only its verdict, so a rewrite that changes both sides of
an identity the same way keeps every stream.  These pins hold the values
themselves: the quadratic-exponent T sum, the level-N closed forms of the
Burge tree, a fermionic string function at a negative m, and the two level-N
transforms at N = 2 with M1 != M2.
"""

from fractions import Fraction

import pytest

from qident import burge
from qident.cli import main
from qident.qpoly import render

# `qident eval` arguments -> its output
EVAL_PINS = {
    "tnew --N 3 --L 5 --ell 1":
        "q^(2/3) + 2*q^(5/3) + 5*q^(8/3) + 7*q^(11/3) + 11*q^(14/3) + 13*q^(17/3) + "
        "16*q^(20/3) + 16*q^(23/3) + 17*q^(26/3) + 15*q^(29/3) + 14*q^(32/3) + "
        "11*q^(35/3) + 9*q^(38/3) + 6*q^(41/3) + 5*q^(44/3) + 3*q^(47/3) + 2*q^(50/3) + "
        "q^(53/3) + q^(56/3)\n",
    "tnew --N 4 --L 4 --ell 2":
        "q^(3/4) + 2*q^(7/4) + 4*q^(11/4) + 6*q^(15/4) + 8*q^(19/4) + 9*q^(23/4) + "
        "10*q^(27/4) + 9*q^(31/4) + 8*q^(35/4) + 7*q^(39/4) + 5*q^(43/4) + 4*q^(47/4) + "
        "3*q^(51/4) + 2*q^(55/4) + q^(59/4) + q^(63/4)\n",
    "closed --name tadpole --M 4 --L 2 --N 2":
        "q^4 + 2*q^5 + 4*q^6 + 5*q^7 + 7*q^8 + 5*q^9 + 4*q^10 + 2*q^11 + q^12\n",
    "closed --name tadpole --M 4 --L 5/2 --N 2 --sigma 1":
        "q^(13/2) + 2*q^(15/2) + 4*q^(17/2) + 4*q^(19/2) + 4*q^(21/2) + 4*q^(23/2) + "
        "2*q^(25/2) + q^(27/2)\n",
    "closed --name tadpole --M 4 --L 2 --N 3":
        "q^4 + 2*q^5 + 5*q^6 + 6*q^7 + 8*q^8 + 6*q^9 + 5*q^10 + 2*q^11 + q^12\n",
    "closed --name a_n --M 3 --L 3 --N 2":
        "1 + q + 3*q^2 + 5*q^3 + 8*q^4 + 10*q^5 + 15*q^6 + 16*q^7 + 19*q^8 + 19*q^9 + "
        "19*q^10 + 16*q^11 + 15*q^12 + 10*q^13 + 8*q^14 + 5*q^15 + 3*q^16 + q^17 + q^18\n",
    "closed --name a_n --M 2 --L 5/2 --N 2 --sigma 1":
        "q^(3/2) + 2*q^(5/2) + 3*q^(7/2) + 3*q^(9/2) + 3*q^(11/2) + 3*q^(13/2) + "
        "2*q^(15/2) + q^(17/2)\n",
    "closed --name a_n --M 3 --L 2 --N 3":
        "1 + q + 3*q^2 + 4*q^3 + 6*q^4 + 6*q^5 + 8*q^6 + 6*q^7 + 6*q^8 + 4*q^9 + "
        "3*q^10 + q^11 + q^12\n",
    "closed --name rr_n --M 3 --L 3 --N 2":
        "1 + 2*q + 5*q^2 + 9*q^3 + 15*q^4 + 23*q^5 + 33*q^6 + 41*q^7 + 47*q^8 + 50*q^9 + "
        "47*q^10 + 41*q^11 + 33*q^12 + 23*q^13 + 15*q^14 + 9*q^15 + 5*q^16 + 2*q^17 + "
        "q^18\n",
    "closed --name rr_n --M 2 --L 5/2 --N 2 --sigma 1":
        "q^(1/2) + 2*q^(3/2) + 4*q^(5/2) + 6*q^(7/2) + 8*q^(9/2) + 8*q^(11/2) + "
        "6*q^(13/2) + 4*q^(15/2) + 2*q^(17/2) + q^(19/2)\n",
    "closed --name rr_n --M 3 --L 2 --N 3":
        "1 + 2*q + 5*q^2 + 10*q^3 + 15*q^4 + 20*q^5 + 22*q^6 + 20*q^7 + 15*q^8 + "
        "10*q^9 + 5*q^10 + 2*q^11 + q^12\n",
    "string.fermionic --N 3 --m -5 --ell 1":
        "q^(-1/120) + 2*q^(119/120) + 5*q^(239/120) + 10*q^(359/120) + 20*q^(479/120) + "
        "36*q^(599/120) + 64*q^(719/120) + 108*q^(839/120) + 180*q^(959/120) + "
        "289*q^(1079/120) + 459*q^(1199/120) + 711*q^(1319/120) + 1090*q^(1439/120) + "
        "1640*q^(1559/120) + 2444*q^(1679/120) + 3591*q^(1799/120) + 5231*q^(1919/120) + "
        "7533*q^(2039/120) + 10765*q^(2159/120) + 15239*q^(2279/120) + "
        "21425*q^(2399/120)\n",
}


@pytest.mark.parametrize("args", sorted(EVAL_PINS))
def test_eval_output_is_pinned(args, capsys):
    assert main(["eval", *args.split()]) == 0
    assert capsys.readouterr().out == EVAL_PINS[args]


def _parent(m1, l1, m2, l2):
    return burge.burge_xn(burge.BurgeParams(1, 2, 0, 1, m1, l1, m2, l2, sigma=(m1 - m2) % 2))


# (transform, sigma, M1, L1, M2, L2) at N = 2 over the seed node -> rendered route
ROUTE_PINS = [
    (("transform_trafo", 0, 4, 3, 2, 1),
     "-q^(-3/2) - 2*q^(-1/2) - 4*q^(1/2) - 6*q^(3/2) - 9*q^(5/2) - 11*q^(7/2) "
     "- 12*q^(9/2) - 12*q^(11/2) - 12*q^(13/2) - 10*q^(15/2) - 8*q^(17/2) "
     "- 7*q^(19/2) - 5*q^(21/2) - 4*q^(23/2) - 3*q^(25/2) - 2*q^(27/2) "
     "- q^(29/2) - q^(31/2)"),
    (("transform_trafo", 1, 2, Fraction(3, 2), 4, Fraction(5, 2)),
     "q^-1 + 2 + 3*q + 6*q^2 + 9*q^3 + 14*q^4 + 17*q^5 + 20*q^6 + 20*q^7 "
     "+ 20*q^8 + 16*q^9 + 13*q^10 + 8*q^11 + 5*q^12 + 2*q^13 + q^14"),
    (("transform_burgetrafo_n", 1, 4, Fraction(7, 2), 2, Fraction(1, 2)),
     "-q^2 - 2*q^3 - 5*q^4 - 8*q^5 - 13*q^6 - 15*q^7 - 17*q^8 - 14*q^9 "
     "- 12*q^10 - 7*q^11 - 5*q^12 - 3*q^13 - 2*q^14 - q^15 - q^16"),
]


@pytest.mark.parametrize("spec, want", ROUTE_PINS)
def test_level_transform_route_is_pinned(spec, want):
    name, sigma, M1, L1, M2, L2 = spec
    assert render(getattr(burge, name)(2, sigma, M1, L1, M2, L2, _parent)) == want
