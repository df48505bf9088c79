"""Faults planted in a kernel that both sides of an identity share.

A fault in a shared layer can cancel between the two sides of an identity,
so each planted fault here must be caught by a check whose other side shares
no code with the kernel, or by a pinned value.

series_product builds every truncated product of factors (1 +- q^e)^(+-1):
the ladder of inv_qpoch and both sides of series.products.  The planted
fault drops the last factor of each call.  verify qpoly.partitions catches it
at its one default point, since its right side, cli._partition_counts, is a
plain count, and the product pins of tests/test_eval_pins.py catch it too.
Both tests fail once the planted fault is taken out.

Out of reach of any such test: a fault that maps every identity to a true
one, such as q -> q^2 applied to both sides at once.  No comparison of the
two sides can see it; only a pinned value can.
"""

import json
import sys

import pytest

from qident import qpoly
from qident.cli import main

from test_eval_pins import EVAL_PINS


@pytest.fixture
def last_factor_skipped(monkeypatch):
    real = qpoly.series_product

    def skip_last(factors, trunc, start=qpoly.ONE):
        return real(list(factors)[:-1], trunc, start)

    binding = [mod for name, mod in sorted(sys.modules.items())
               if name.startswith("qident") and getattr(mod, "series_product", None) is real]
    assert {mod.__name__ for mod in binding} >= {"qident.qpoly", "qident.series"}
    for mod in binding:
        monkeypatch.setattr(mod, "series_product", skip_last)
    monkeypatch.setattr(qpoly, "_INV_QPOCH", {})  # no ladder rung built before or under the fault survives


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_skipped_factor_is_caught_by_the_partition_counts(capsys, last_factor_skipped, jobs):
    code = main(["verify", "qpoly.partitions", "--jobs", jobs])
    out, err = capsys.readouterr()
    summary = json.loads(out.splitlines()[-1])
    assert (summary["equal"], summary["mismatch"], summary["error"]) == (0, 1, 0)
    assert code == 1 and err == ""


@pytest.mark.parametrize("args", sorted(a for a in EVAL_PINS if a.startswith("product ")))
def test_skipped_factor_breaks_the_product_pins(capsys, last_factor_skipped, args):
    assert main(["eval", *args.split()]) == 0
    assert capsys.readouterr().out != EVAL_PINS[args]
