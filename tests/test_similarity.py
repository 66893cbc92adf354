import numpy as np
import pytest

from wavekernel import (
    LevelError,
    ScaleRange,
    ShapeError,
)

from oracle import Segment, WaveletPyramid, combined_distance, forward_dwt, scale_distance


def random_pyramid(seed, j0=0, J=4, filter_id="dd2"):
    rng = np.random.default_rng(seed)
    return WaveletPyramid(
        j0=j0, J=J, coarse=rng.normal(size=2**j0),
        details=tuple(rng.normal(size=2**j) for j in range(j0, J)),
        filter_id=filter_id,
    )


class TestScaleDistance:
    def test_identical_vectors(self):
        assert scale_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_vector(self):
        assert scale_distance([1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_three_four_five(self):
        assert scale_distance([3.0, 4.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            scale_distance([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("k", [-560, 560])
    def test_extreme_magnitudes_scale_exactly(self, k):
        # a plain sum of squares reads 0 at 2**-560 and overflows at 2**560
        a, b = np.random.default_rng(0).normal(size=(2, 16)) * 1e3
        np.testing.assert_allclose(scale_distance(np.ldexp(a, k), np.ldexp(b, k)),
                                   np.ldexp(scale_distance(a, b), k), rtol=1e-12, atol=0)
        pa, pb = forward_dwt(Segment(a)), forward_dwt(Segment(b))
        got = combined_distance(forward_dwt(Segment(np.ldexp(a, k))),
                                forward_dwt(Segment(np.ldexp(b, k))))
        np.testing.assert_allclose(got, np.ldexp(combined_distance(pa, pb), k),
                                   rtol=1e-12, atol=0)


class TestCombinedDistance:
    def test_identity(self):
        p = random_pyramid(0)
        assert combined_distance(p, p) == 0.0

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_unit_difference_at_one_scale(self, j):
        p1 = random_pyramid(1)
        details = list(p1.details)
        bump = details[j].copy()
        bump[0] += 1.0
        details[j] = bump
        p2 = WaveletPyramid(j0=p1.j0, J=p1.J, coarse=p1.coarse,
                            details=tuple(details), filter_id=p1.filter_id)
        assert combined_distance(p1, p2) == pytest.approx(2.0**-j)

    def test_symmetry(self):
        for seed in range(20):
            p1 = random_pyramid(seed)
            p2 = random_pyramid(seed + 1000)
            d12 = combined_distance(p1, p2)
            d21 = combined_distance(p2, p1)
            assert d12 == pytest.approx(d21, abs=1e-12)
            assert d12 >= 0.0

    def test_triangle_inequality(self):
        for seed in range(20):
            a = random_pyramid(3 * seed)
            b = random_pyramid(3 * seed + 1)
            c = random_pyramid(3 * seed + 2)
            assert combined_distance(a, c) <= (
                combined_distance(a, b) + combined_distance(b, c) + 1e-9
            )

    def test_homogeneity_through_the_transform(self):
        # linearity of the transform carries |c|-homogeneity to pyramids
        rng = np.random.default_rng(5)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        for c in (-3.5, 0.25, 2.0):
            d1 = combined_distance(forward_dwt(Segment(c * x)),
                                   forward_dwt(Segment(c * y)))
            d0 = combined_distance(forward_dwt(Segment(x)),
                                   forward_dwt(Segment(y)))
            assert d1 == pytest.approx(abs(c) * d0, rel=1e-9)

    def test_shift_invariance_details_only(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        d0 = combined_distance(forward_dwt(Segment(x)), forward_dwt(Segment(y)))
        d1 = combined_distance(forward_dwt(Segment(x + 42.0)),
                               forward_dwt(Segment(y + 42.0)))
        assert d1 == pytest.approx(d0, abs=1e-9)

    def test_scale_range_restriction(self):
        p1 = random_pyramid(8)
        p2 = random_pyramid(9)
        full = combined_distance(p1, p2)
        fine_only = combined_distance(p1, p2, scale_range=ScaleRange(2, 3))
        coarse_only = combined_distance(p1, p2, scale_range=ScaleRange(0, 1))
        assert full == pytest.approx(fine_only + coarse_only, rel=1e-12)

    def test_mismatched_pyramids_rejected(self):
        p_dd2 = random_pyramid(10, filter_id="dd2")
        p_dd6 = random_pyramid(10, filter_id="dd6")
        with pytest.raises(ShapeError):
            combined_distance(p_dd2, p_dd6)
        p_small = random_pyramid(10, J=3)
        with pytest.raises(ShapeError):
            combined_distance(p_dd2, p_small)

    def test_bad_scale_range(self):
        with pytest.raises(LevelError):
            ScaleRange(2, 1)
        p1 = random_pyramid(11)
        p2 = random_pyramid(12)
        with pytest.raises(LevelError):
            combined_distance(p1, p2, scale_range=ScaleRange(0, 5))
