"""Rendered values of the lattice-sum displays, pinned term by term.

A verify row prints only its verdict, so a rewrite that changes both sides of
an identity the same way keeps every stream.  These pins hold the values
themselves: the quadratic-exponent T sum, Burge's classic closed forms and
the level-N ones of the Burge tree, a fermionic string function at a negative
m, the two level-N transforms at N = 2 with M1 != M2, and the three classical
products of series.products, whose sums run through the same product kernel.
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
    "closed --name nn --M 3 --L 2":
        "q^4 + q^5 + q^6 + q^7 + q^8\n",
    "closed --name nn --M 5 --L 3":
        "q^9 + q^10 + 2*q^11 + 2*q^12 + 3*q^13 + 3*q^14 + 4*q^15 + 3*q^16 + 3*q^17 + "
        "2*q^18 + 2*q^19 + q^20 + q^21\n",
    "closed --name euler --M 3 --L 2":
        "1 + q + 2*q^2 + 3*q^3 + 4*q^4 + 4*q^5 + 5*q^6 + 4*q^7 + 4*q^8 + 3*q^9 + "
        "2*q^10 + q^11 + q^12\n",
    "closed --name euler --M 4 --L 3":
        "1 + q + 2*q^2 + 3*q^3 + 5*q^4 + 6*q^5 + 9*q^6 + 10*q^7 + 13*q^8 + 14*q^9 + "
        "16*q^10 + 16*q^11 + 18*q^12 + 16*q^13 + 16*q^14 + 14*q^15 + 13*q^16 + 10*q^17 + "
        "9*q^18 + 6*q^19 + 5*q^20 + 3*q^21 + 2*q^22 + q^23 + q^24\n",
    "closed --name ising --M 3 --L 3":
        "1 + q + 3*q^2 + 5*q^3 + 8*q^4 + 10*q^5 + 14*q^6 + 15*q^7 + 18*q^8 + 18*q^9 + "
        "18*q^10 + 15*q^11 + 14*q^12 + 10*q^13 + 8*q^14 + 5*q^15 + 3*q^16 + q^17 + q^18\n",
    "closed --name ising --M 4 --L 4":
        "1 + q + 3*q^2 + 5*q^3 + 10*q^4 + 14*q^5 + 22*q^6 + 29*q^7 + 41*q^8 + 50*q^9 + "
        "64*q^10 + 74*q^11 + 88*q^12 + 95*q^13 + 105*q^14 + 107*q^15 + 112*q^16 + "
        "107*q^17 + 105*q^18 + 95*q^19 + 88*q^20 + 74*q^21 + 64*q^22 + 50*q^23 + "
        "41*q^24 + 29*q^25 + 22*q^26 + 14*q^27 + 10*q^28 + 5*q^29 + 3*q^30 + q^31 + q^32\n",
    "closed --name rr --M 3 --L 3":
        "1 + 2*q + 4*q^2 + 7*q^3 + 11*q^4 + 16*q^5 + 22*q^6 + 26*q^7 + 29*q^8 + 31*q^9 + "
        "29*q^10 + 26*q^11 + 22*q^12 + 16*q^13 + 11*q^14 + 7*q^15 + 4*q^16 + 2*q^17 + "
        "q^18\n",
    "closed --name rr --M 4 --L 2":
        "1 + 2*q + 4*q^2 + 7*q^3 + 12*q^4 + 15*q^5 + 20*q^6 + 22*q^7 + 24*q^8 + 22*q^9 + "
        "20*q^10 + 15*q^11 + 12*q^12 + 7*q^13 + 4*q^14 + 2*q^15 + q^16\n",
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
    "product --family ising --trunc 30":
        "1 + q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 3*q^7 + 5*q^8 + 5*q^9 + 7*q^10 + "
        "8*q^11 + 11*q^12 + 12*q^13 + 16*q^14 + 18*q^15 + 23*q^16 + 26*q^17 + "
        "33*q^18 + 37*q^19 + 46*q^20 + 52*q^21 + 63*q^22 + 72*q^23 + 87*q^24 + "
        "98*q^25 + 117*q^26 + 133*q^27 + 157*q^28 + 178*q^29 + 209*q^30\n",
    "product --family rr --trunc 30":
        "1 + q + q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6 + 3*q^7 + 4*q^8 + 5*q^9 + 6*q^10 + "
        "7*q^11 + 9*q^12 + 10*q^13 + 12*q^14 + 14*q^15 + 17*q^16 + 19*q^17 + 23*q^18 + "
        "26*q^19 + 31*q^20 + 35*q^21 + 41*q^22 + 46*q^23 + 54*q^24 + 61*q^25 + "
        "70*q^26 + 79*q^27 + 91*q^28 + 102*q^29 + 117*q^30\n",
    "product --family slater --trunc 30":
        "1 + q + q^2 + q^3 + 2*q^4 + 2*q^5 + 2*q^6 + 3*q^7 + 4*q^8 + 5*q^9 + 5*q^10 + "
        "6*q^11 + 8*q^12 + 9*q^13 + 10*q^14 + 12*q^15 + 15*q^16 + 17*q^17 + 19*q^18 + "
        "22*q^19 + 26*q^20 + 30*q^21 + 33*q^22 + 38*q^23 + 45*q^24 + 51*q^25 + "
        "56*q^26 + 64*q^27 + 74*q^28 + 83*q^29 + 92*q^30\n",
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
