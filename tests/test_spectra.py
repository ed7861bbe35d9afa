from __future__ import annotations

import numpy as np
import pytest

from ridgelab import (
    ClippedSquareNormal,
    DomainError,
    JointSpectrum,
    ModelSpec,
    ShiftedAbsNormal,
    ShiftedInvAbsNormal,
    Uniform,
    WeightedSpectrum,
    discretize,
    independent_product,
    point_mass,
    relate,
    split_top_mass,
    spectrum_from_json,
)
from oracles import loop_merged, truncate_top


class TestJointSpectrum:
    def test_atoms_roundtrip(self) -> None:
        spec = JointSpectrum([(1.0, 2.0, 0.25), (3.0, 0.5, 0.75)])
        assert spec.n_atoms == 2
        assert spec.h.tolist() == [1.0, 3.0]
        assert spec.g.tolist() == [2.0, 0.5]
        assert spec.w.tolist() == [0.25, 0.75]

    def test_weights_must_sum_to_one(self) -> None:
        with pytest.raises(ValueError):
            JointSpectrum([(1.0, 1.0, 0.5), (2.0, 1.0, 0.4)])

    def test_nonpositive_h_rejected_unless_truncated(self) -> None:
        with pytest.raises(ValueError):
            JointSpectrum([(0.0, 1.0, 0.5), (2.0, 1.0, 0.5)])
        trunc = JointSpectrum([(0.0, 1.0, 0.5), (2.0, 1.0, 0.5)], truncated=True)
        assert trunc.positive_mass() == pytest.approx(0.5)

    def test_negative_g_rejected(self) -> None:
        with pytest.raises(ValueError):
            JointSpectrum([(1.0, -0.2, 1.0)])

    def test_expect_and_e_gh(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 2.0, 0.5)])
        assert spec.expect(lambda h, g: h) == pytest.approx(2.0)
        assert spec.e_gh() == pytest.approx(0.5 * 1.0 + 0.5 * 6.0)

    def test_expect_rejects_nonfinite(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 2.0, 0.5)])
        with pytest.raises(ValueError):
            spec.expect(lambda h, g: np.where(h > 2.0, np.inf, h))

    def test_bounds(self) -> None:
        spec = JointSpectrum([(0.5, 1.0, 0.5), (4.0, 7.0, 0.5)])
        assert spec.c_lower == pytest.approx(0.5)
        assert spec.c_upper >= 7.0

    def test_merged_coalesces_duplicates(self) -> None:
        spec = JointSpectrum([(1.0, 2.0, 0.3), (1.0, 2.0, 0.2), (3.0, 1.0, 0.5)])
        merged = spec.merged()
        assert merged.n_atoms == 2
        assert merged.expect(lambda h, g: h * g) == pytest.approx(spec.expect(lambda h, g: h * g))

    @pytest.mark.parametrize("atoms", [
        [(1.0, 2.0, 0.3), (3.0, 1.0, 0.1), (1.0, 2.0, 0.2), (3.0, 1.0, 0.1), (1.0, 2.0, 0.3)],
        # h gaps inside (0, tol]: the third atom is within tol of the second, not of the anchor
        [(1.0, 1.0, 0.25), (1.0 + 6e-13, 1.0, 0.25), (1.0 + 1.2e-12, 1.0, 0.25), (2.0, 1.0, 0.25)],
        # a g chain longer than tol at one h
        [(1.0, 1.0 + k * 6e-13, 0.2) for k in range(5)],
        # the last atom is beyond tol of its predecessor in g, but within tol of the anchor
        [(1.0, 1.0, 0.4), (1.0 + 1e-13, 1.0 + 8e-13, 0.3), (1.0 + 2e-13, 1.0 - 5e-13, 0.3)],
        # unsorted, with exact copies, ties in h and ties in g
        [(h, g, 0.05) for h, g in np.random.default_rng(3).choice([1.0, 2.0, 5.0], (20, 2))],
        [(h, g, 1.0 / 64) for h, g in np.random.default_rng(4).uniform(1.0, 8.0, (64, 2)).round(1)],
        relate(np.repeat([1.0, 3.0, 5.0, 7.0], 16), np.repeat([1.0, 8.0], [48, 16]), "random", seed=1).atoms,
    ], ids=["exact-copies", "h-gaps-within-tol", "g-chain", "g-gap-within-anchor-tol", "unsorted-ties",
            "unsorted-grid", "random-pairing"])
    def test_merged_is_the_anchor_loop_bit_for_bit(self, atoms) -> None:
        spec = JointSpectrum(atoms)
        merged, loop = spec.merged(), loop_merged(spec)
        assert merged == loop  # h, g and the summed weights, bit for bit
        assert merged.n_atoms < spec.n_atoms

    def test_built_from_an_array_it_owns_its_atoms(self) -> None:
        arr = np.array([[1.0, 2.0, 0.25], [3.0, 0.5, 0.75]])
        spec = JointSpectrum(arr)
        arr[:] = 7.0
        assert spec.atoms == ((1.0, 2.0, 0.25), (3.0, 0.5, 0.75))
        with pytest.raises(ValueError):
            spec.h[0] = 2.0
        quads = np.array([[1.0, 2.0, 1.0, 0.5], [4.0, 0.5, 4.0, 0.5]])
        wspec = WeightedSpectrum(quads)
        quads[:] = 7.0
        assert wspec.atoms == ((1.0, 2.0, 1.0, 0.5), (4.0, 0.5, 4.0, 0.5))
        with pytest.raises(ValueError):
            wspec.r[0] = 2.0

    def test_equality_and_hash(self) -> None:
        a = JointSpectrum([(1.0, 2.0, 0.5), (3.0, 1.0, 0.5)])
        b = JointSpectrum([(1.0, 2.0, 0.5), (3.0, 1.0, 0.5)])
        c = JointSpectrum([(1.0, 2.0, 0.4), (3.0, 1.0, 0.6)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_json_roundtrip(self) -> None:
        spec = JointSpectrum([(1.0, 2.0, 0.25), (3.0, 0.5, 0.75)])
        assert spectrum_from_json(spec.to_json()) == spec


class TestWeightedSpectrum:
    def test_projection_swaps_to_penalty_coordinates(self) -> None:
        wspec = WeightedSpectrum([(2.0, 3.0, 4.0, 1.0)])
        joint = wspec.project()
        assert joint.h.tolist() == [4.0]
        assert joint.g.tolist() == [2.0 * 3.0 / 4.0]

    def test_with_r_callable_and_array(self) -> None:
        wspec = WeightedSpectrum([(1.0, 2.0, 1.0, 0.5), (4.0, 1.0, 4.0, 0.5)])
        by_fn = wspec.with_r(lambda s, v: s * v)
        assert by_fn.r.tolist() == [2.0, 4.0]
        by_arr = wspec.with_r([3.0, 5.0])
        assert by_arr.r.tolist() == [3.0, 5.0]
        assert by_arr.s.tolist() == wspec.s.tolist()

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            WeightedSpectrum([(0.0, 1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            WeightedSpectrum([(1.0, 1.0, 0.0, 1.0)])

    def test_json_roundtrip(self) -> None:
        wspec = WeightedSpectrum([(1.0, 2.0, 1.5, 0.5), (4.0, 1.0, 2.0, 0.5)])
        assert spectrum_from_json(wspec.to_json()) == wspec


class TestModelSpec:
    def test_validation(self) -> None:
        spec = point_mass(1.0)
        with pytest.raises(ValueError):
            ModelSpec(0.0, 0.0, spec)
        with pytest.raises(ValueError):
            ModelSpec(1.0, -0.1, spec)

    def test_snr_conversion(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 2.0, 0.5)])
        model = ModelSpec.with_snr(2.0, 10.0, spec)
        assert model.sigma2 == pytest.approx(spec.e_gh() / 10.0)
        assert model.snr() == pytest.approx(10.0)

    def test_hashable(self) -> None:
        spec = point_mass(1.0)
        assert hash(ModelSpec(2.0, 0.0, spec)) == hash(ModelSpec(2.0, 0.0, spec))


class TestLaws:
    def test_uniform_quantile(self) -> None:
        law = Uniform(1.0, 5.0)
        q = np.array([0.0, 0.25, 0.5, 1.0])
        assert law.quantile(q) == pytest.approx([1.0, 2.0, 3.0, 5.0])

    def test_discretize_two_atom_oracle(self) -> None:
        spec = discretize(Uniform(1.0, 5.0), n_atoms=2)
        assert spec.h == pytest.approx([2.0, 4.0])
        assert spec.w == pytest.approx([0.5, 0.5])
        assert spec.g == pytest.approx([1.0, 1.0])

    def test_discretize_mean_converges(self) -> None:
        coarse = discretize(Uniform(1.0, 5.0), 16)
        fine = discretize(Uniform(1.0, 5.0), 4096)
        assert coarse.expect(lambda h, g: h) == pytest.approx(3.0)
        assert fine.expect(lambda h, g: h * h) == pytest.approx(31.0 / 3.0, rel=1e-4)

    def test_shifted_abs_normal_support_and_median(self) -> None:
        law = ShiftedAbsNormal(5.0)
        qs = law.quantile(np.array([0.01, 0.5, 0.99]))
        assert np.all(qs >= 5.0)
        # |Z| median is the 0.75 normal quantile
        assert qs[1] == pytest.approx(5.0 + 0.6744897501960817, rel=1e-9)

    def test_shifted_inv_abs_normal_is_decreasing_tail(self) -> None:
        law = ShiftedInvAbsNormal(2.0)
        qs = law.quantile(np.array([0.1, 0.5, 0.9]))
        assert np.all(qs > 2.0)
        assert qs[0] < qs[1] < qs[2]

    def test_clipped_square_normal_cap(self) -> None:
        law = ClippedSquareNormal(5.0)
        qs = law.quantile(np.linspace(0.001, 0.999, 101))
        assert np.all(qs >= 1.0) and np.all(qs <= 5.0)
        assert qs.max() == pytest.approx(5.0)


class TestRelate:
    def test_aligned(self) -> None:
        spec = relate([3.0, 1.0], [10.0, 2.0], "aligned")
        assert spec.atoms == ((1.0, 2.0, 0.5), (3.0, 10.0, 0.5))

    def test_misaligned(self) -> None:
        spec = relate([3.0, 1.0], [10.0, 2.0], "misaligned")
        assert spec.atoms == ((1.0, 10.0, 0.5), (3.0, 2.0, 0.5))

    def test_misaligned_uneven_masses(self) -> None:
        spec = relate([1.0, 1.0, 1.0, 5.0], [1.0, 1.0, 1.0, 5.0], "misaligned").merged()
        atoms = {(h, g): w for h, g, w in spec.atoms}
        assert atoms[(1.0, 5.0)] == pytest.approx(0.25)
        assert atoms[(1.0, 1.0)] == pytest.approx(0.5)
        assert atoms[(5.0, 1.0)] == pytest.approx(0.25)

    def test_random_requires_seed(self) -> None:
        with pytest.raises(ValueError):
            relate([1.0, 2.0], [1.0, 2.0], "random")
        spec = relate([1.0, 2.0], [3.0, 4.0], "random", seed=11)
        assert spec.n_atoms == 2

    def test_unknown_relation(self) -> None:
        with pytest.raises(ValueError):
            relate([1.0], [1.0], "sideways")


class TestIndependentProduct:
    def test_exact_product_atoms(self) -> None:
        spec = independent_product([1.0, 5.0], [0.75, 0.25], [1.0, 5.0], [0.75, 0.25])
        atoms = {(h, g): w for h, g, w in spec.atoms}
        assert atoms[(1.0, 1.0)] == pytest.approx(9.0 / 16.0)
        assert atoms[(1.0, 5.0)] == pytest.approx(3.0 / 16.0)
        assert atoms[(5.0, 1.0)] == pytest.approx(3.0 / 16.0)
        assert atoms[(5.0, 5.0)] == pytest.approx(1.0 / 16.0)

    def test_flat_conditional_mean(self) -> None:
        spec = independent_product([1.0, 2.0, 3.0], [0.2, 0.3, 0.5], [1.0, 4.0], [0.5, 0.5])
        for level in (1.0, 2.0, 3.0):
            at = spec.h == level
            mean = float(np.dot(spec.w[at], spec.g[at])) / float(spec.w[at].sum())
            assert mean == pytest.approx(2.5)


class TestTruncation:
    def test_split_keeps_exact_mass(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)])
        h, g, w_kept, w_dropped = split_top_mass(spec, 0.5)
        assert w_kept.sum() == pytest.approx(0.5, abs=1e-12)
        assert (w_kept + w_dropped) == pytest.approx(spec.w)
        assert w_kept.tolist() == [0.0, 0.5]

    def test_boundary_atom_split(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 1.0, 0.25)])
        h, g, w_kept, w_dropped = split_top_mass(spec, 0.5)
        assert w_kept.tolist() == pytest.approx([0.25, 0.25])
        assert w_dropped.tolist() == pytest.approx([0.5, 0.0])

    def test_tied_levels_split_proportionally(self) -> None:
        spec = JointSpectrum([(2.0, 1.0, 0.2), (0.2, 1.0, 0.6), (0.2, 2.0, 0.2)])
        h, g, w_kept, w_dropped = split_top_mass(spec, 0.6)
        assert w_kept.tolist() == pytest.approx([0.2, 0.3, 0.1])

    def test_truncate_examples(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)])
        trunc = truncate_top(spec, 0.5)
        atoms = {(h, g): w for h, g, w in trunc.atoms}
        assert atoms[(0.0, 1.0)] == pytest.approx(0.5)
        assert atoms[(3.0, 1.0)] == pytest.approx(0.5)

        spec2 = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 1.0, 0.25)])
        trunc2 = truncate_top(spec2, 0.25)
        atoms2 = {(h, g): w for h, g, w in trunc2.atoms}
        assert atoms2[(0.0, 1.0)] == pytest.approx(0.75)
        assert atoms2[(5.0, 1.0)] == pytest.approx(0.25)

    def test_truncated_positive_mass_equals_theta(self) -> None:
        spec = discretize(Uniform(1.0, 8.0), 64)
        for theta in (0.2, 0.55, 0.9, 1.0):
            trunc = truncate_top(spec, theta)
            assert trunc.positive_mass() == pytest.approx(theta, abs=1e-12)
            assert trunc.w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_theta_validation(self) -> None:
        spec = point_mass(1.0)
        with pytest.raises(DomainError):
            split_top_mass(spec, 0.0)
        with pytest.raises(DomainError):
            split_top_mass(spec, 1.2)
