"""`verify_lattice`'s failure branches that the canonical maps never
reach, each driven by an injected fault, and one size whose
order-reversal check spans more than one chunk."""

import pytest

from sparsemkl import DualMark, DualStratum, PrimalStratum, verify_lattice
from sparsemkl import strata


def test_non_injective_transfer_fails_bijection_with_witness():
    # every primal stratum onto the all-Interior dual stratum
    def collapse(stratum):
        return DualStratum((DualMark.INTERIOR,) * stratum.n_groups)

    verdict = verify_lattice(4, transfer=collapse)
    assert not verdict.passed
    assert verdict.check == "bijection"
    # the first two primal strata share an image
    assert verdict.witness == (PrimalStratum.from_mask(0, 4),
                               PrimalStratum.from_mask(1, 4))


def test_transfer_that_misses_a_dual_stratum_fails_bijection():
    # injective, but every image sets a bit beyond the G groups
    def lift(stratum):
        G = stratum.n_groups
        return DualStratum.from_mask(stratum.as_mask() | 1 << G, G + 1)

    verdict = verify_lattice(3, transfer=lift)
    assert not verdict.passed
    assert verdict.check == "bijection"
    assert verdict.witness == (DualStratum.from_mask(0, 3),)


@pytest.mark.parametrize("side, check", [
    (PrimalStratum, "primal-comparator"),
    (DualStratum, "dual-comparator"),
])
def test_wrong_public_comparator_is_caught(monkeypatch, side, check):
    real = strata.stratum_leq

    def wrong_on_one_side(a, b):
        return not real(a, b) if isinstance(a, side) else real(a, b)

    monkeypatch.setattr(strata, "stratum_leq", wrong_on_one_side)
    verdict = verify_lattice(3)
    assert not verdict.passed
    assert verdict.check == check
    a, b = verdict.witness
    assert isinstance(a, side) and isinstance(b, side)
    assert wrong_on_one_side(a, b) != real(a, b)


def test_lattice_beyond_one_order_reversal_chunk_passes():
    # G = 12 is the smallest size whose 4^G pairs span more than one chunk
    assert verify_lattice(12).passed
