import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    DualCoefficients,
    DualInfeasible,
    DualMark,
    DualStratum,
    PrimalMark,
    PrimalStratum,
    SandwichVerdict,
    SolverConfig,
    SolveTrace,
    SupportReport,
    dual_stratum_of,
    last_support_change,
    primal_stratum_of,
    qualification_check,
    sandwich_check,
    solve_with_reference,
    stratum_leq,
    transfer_JR,
    transfer_JRstar,
    verify_lattice,
)

from _fixtures import coeffs_like, group_lasso_instance

Z, N = PrimalMark.ZERO, PrimalMark.NONZERO
I, S = DualMark.INTERIOR, DualMark.SPHERE


class TestPrimalStrata:
    def test_zero_coefficients_all_zero_pattern(self):
        stratum = primal_stratum_of(DualCoefficients(np.zeros((3, 4))))
        assert stratum.pattern == (Z, Z, Z, Z)

    def test_pattern_from_support(self):
        stratum = PrimalStratum.from_support({0, 2}, 4)
        assert stratum.pattern == (N, Z, N, Z)
        assert stratum.nonzero_set() == {0, 2}
        assert stratum.as_mask() == 0b0101

    def test_support_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            PrimalStratum.from_support({4}, 4)

    def test_mask_round_trip(self):
        for mask in range(16):
            assert PrimalStratum.from_mask(mask, 4).as_mask() == mask

    def test_mask_round_trip_is_exact_at_70_groups(self):
        support = {0, 1, 40, 63, 64, 69}
        mask = PrimalStratum.from_support(support, 70).as_mask()
        assert type(mask) is int
        assert mask == sum(1 << g for g in support)
        assert PrimalStratum.from_mask(mask, 70).nonzero_set() == support
        dual = DualStratum.from_mask(mask, 70)
        assert dual.sphere_set() == support
        assert type(dual.as_mask()) is int and dual.as_mask() == mask

    def test_matches_support_report(self, ortho):
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        report = qualification_check(c, ortho)
        rebuilt = PrimalStratum.from_support(report.support, ortho.n_groups)
        assert primal_stratum_of(c) == rebuilt


class TestDualStrata:
    def test_zero_norms_all_interior(self):
        stratum = dual_stratum_of(np.zeros(3))
        assert stratum.pattern == (I, I, I)

    def test_scalar_example_saturated(self, one_d):
        from sparsemkl import certificate_norms

        norms = certificate_norms(DualCoefficients(np.zeros((1, 1))), one_d)
        stratum = dual_stratum_of(norms)
        assert stratum.pattern == (S,)
        # its primal image under the inverse transfer names the esupp
        assert transfer_JRstar(stratum).nonzero_set() == {0}

    def test_orthonormal_pattern(self, ortho):
        from sparsemkl import certificate_norms

        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        stratum = dual_stratum_of(certificate_norms(c, ortho))
        assert stratum.pattern == (S, I)

    def test_infeasible_norms_rejected(self):
        with pytest.raises(DualInfeasible):
            dual_stratum_of(np.array([0.5, 1.2]))

    @pytest.mark.parametrize("eps_rel", [np.nan, -0.5, 1.0, 1.5])
    def test_eps_rel_outside_unit_interval_rejected(self, eps_rel, ortho):
        # the one sphere rule refuses the band for both entry points
        with pytest.raises(ContractViolation, match="eps_rel must lie in"):
            dual_stratum_of(np.array([1.0, 0.5]), eps_rel)
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        with pytest.raises(ContractViolation, match="eps_rel must lie in"):
            qualification_check(c, ortho, eps_rel)

    def test_band_tolerance(self):
        eps = 1e-4
        stratum = dual_stratum_of(np.array([1.0 - 2 * eps, 1.0 - eps / 2]), eps)
        assert stratum.pattern == (I, S)


class TestTransferMaps:
    def test_all_zero_to_all_interior(self):
        assert transfer_JR(PrimalStratum((Z, Z, Z))).pattern == (I, I, I)

    def test_componentwise_rule(self):
        assert transfer_JR(PrimalStratum((N, Z))).pattern == (S, I)
        assert transfer_JRstar(DualStratum((S, I))).pattern == (N, Z)

    def test_transfers_invert_each_other(self):
        for mask in range(32):
            p = PrimalStratum.from_mask(mask, 5)
            assert transfer_JRstar(transfer_JR(p)) == p
            d = DualStratum.from_mask(mask, 5)
            assert transfer_JR(transfer_JRstar(d)) == d


class TestStratumOrder:
    def test_primal_is_subset_order(self):
        a = PrimalStratum.from_support({1}, 3)
        b = PrimalStratum.from_support({1, 2}, 3)
        assert stratum_leq(a, b)
        assert not stratum_leq(b, a)

    def test_dual_is_superset_order(self):
        a = DualStratum.from_mask(0b111, 3)
        b = DualStratum.from_mask(0b010, 3)
        assert stratum_leq(a, b)
        assert not stratum_leq(b, a)

    def test_transfer_reverses_order(self):
        a = PrimalStratum.from_support(set(), 4)
        b = PrimalStratum.from_support({0, 3}, 4)
        assert stratum_leq(a, b)
        assert stratum_leq(transfer_JR(b), transfer_JR(a))

    def test_mixed_comparison_rejected(self):
        with pytest.raises(ContractViolation):
            stratum_leq(PrimalStratum((Z,)), DualStratum((I,)))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ContractViolation):
            stratum_leq(PrimalStratum((Z,)), PrimalStratum((Z, Z)))


class TestVerifyLattice:
    def test_single_group_lattice(self):
        verdict = verify_lattice(1)
        assert verdict.passed
        assert bool(verdict)

    @pytest.mark.parametrize("G", [2, 5, 8])
    def test_exhaustive_small_lattices(self, G):
        assert verify_lattice(G).passed

    def test_group_count_bounds(self):
        with pytest.raises(ContractViolation):
            verify_lattice(0)
        with pytest.raises(ContractViolation):
            verify_lattice(17)

    def test_corrupted_transfer_caught_with_witness(self):
        # swap the rule on component 0 in both directions so the maps
        # stay inverse bijections and only order-reversal can fail
        def bad_transfer(stratum):
            flipped = transfer_JR(stratum).pattern
            swap = {S: I, I: S}
            return DualStratum((swap[flipped[0]],) + flipped[1:])

        def bad_inverse(stratum):
            swap = {S: I, I: S}
            fixed = (swap[stratum.pattern[0]],) + stratum.pattern[1:]
            return transfer_JRstar(DualStratum(fixed))

        verdict = verify_lattice(3, transfer=bad_transfer, inverse=bad_inverse)
        assert not verdict.passed
        assert verdict.check == "order-reversal"
        assert verdict.witness is not None

    def test_broken_inverse_caught(self):
        def bad_inverse(stratum):
            return PrimalStratum((Z,) * stratum.n_groups)

        verdict = verify_lattice(2, inverse=bad_inverse)
        assert not verdict.passed
        assert verdict.check == "inverse"


def sandwich_by_masks(trace, report, burn_in):
    """The sandwich as set inclusions, iteration by iteration: the
    reference that `sandwich_check`'s stratum comparison must match."""
    G = trace.n_groups
    lo = np.isin(np.arange(G), sorted(report.support))
    hi = np.isin(np.arange(G), sorted(report.extended_support))
    for n in range(max(burn_in, 1), trace.iters_run + 1):
        k = np.searchsorted(trace.change_iters, n, "right") - 1
        row = trace.change_supports[k]
        if not ((row >= lo).all() and (row <= hi).all()):
            return SandwichVerdict(False, n)
    return SandwichVerdict(True, None)


class TestIdentificationOnTraces:
    @pytest.mark.parametrize("index", [2, 13, 21])
    def test_lattice_sandwich_agrees_with_mask_sandwich(self, index):
        # the identification statement on the lattice must coincide with
        # the set-inclusion sandwich on every recorded iterate
        prob = group_lasso_instance(index)
        cfg = SolverConfig(tau_factor=0.8, max_iters=2500)
        result = solve_with_reference(prob, cfg)
        trace = result.trace
        report = qualification_check(result.reference, prob)

        s_bar = PrimalStratum.from_support(report.support, prob.n_groups)
        d_bar = dual_stratum_of(report.certificate_norms, report.eps_rel)
        upper = transfer_JRstar(d_bar)
        assert upper.nonzero_set() == report.extended_support

        burn = last_support_change(trace)
        verdict = sandwich_check(trace, report, burn)
        assert verdict == sandwich_by_masks(trace, report, burn)

        lattice_ok = True
        for i in range(trace.n_recorded):
            if trace.iterations[i] < burn:
                continue
            here = PrimalStratum.from_support(
                np.flatnonzero(trace.supports[i]), prob.n_groups
            )
            if not (stratum_leq(s_bar, here) and stratum_leq(here, upper)):
                lattice_ok = False
                break
        assert lattice_ok == verdict.passed
        assert verdict.passed

    def test_sandwich_agrees_with_mask_oracle_on_random_traces(self):
        rng = np.random.default_rng(20181)
        verdicts = []
        for _ in range(400):
            G = int(rng.integers(1, 21))
            iters = int(rng.integers(1, 41))
            n_events = int(rng.integers(1, min(iters, 6) + 1))
            later = rng.choice(np.arange(2, iters + 1), n_events - 1,
                               replace=False)
            change_iters = np.concatenate([[1], np.sort(later)])
            supp = rng.random(G) < 0.3
            if rng.random() < 0.8:
                esupp = supp | (rng.random(G) < 0.3)
            else:
                esupp = rng.random(G) < 0.5
            # iterate supports between the two bounds, one group flipped
            # now and then so that both inclusions fail in some cases
            rows = supp | (esupp & (rng.random((n_events, G)) < 0.5))
            for row in rows:
                if rng.random() < 0.15:
                    g = rng.integers(G)
                    row[g] = not row[g]
            trace = SolveTrace(
                change_iters=change_iters, change_supports=rows,
                objectives=[], step_norms=[], objective=0.0, iters_run=iters,
                final_step_norm=0.0,
            )
            report = SupportReport(
                support=np.flatnonzero(supp),
                extended_support=np.flatnonzero(esupp),
                certificate_norms=np.zeros(G), qc_holds=False, qc_margin=0.0,
                eps_rel=1e-4,
            )
            burn_in = int(rng.integers(0, iters + 1))
            verdict = sandwich_check(trace, report, burn_in)
            assert verdict == sandwich_by_masks(trace, report, burn_in)
            verdicts.append(verdict.passed)
        # both verdicts are drawn often
        assert 100 <= sum(verdicts) <= 300
