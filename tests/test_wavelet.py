import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavekernel import (
    FILTERS,
    InvalidInputError,
    LevelError,
    Segment,
    ShapeError,
    WaveletPyramid,
    forward_dwt,
    pad_to_pow2,
)
from wavekernel.wavelet import forward_array

from oracle import inverse_array, inverse_dwt

POW2_LENGTHS = [4, 8, 16, 32, 64]


def random_segment(length, seed):
    return Segment(np.random.default_rng(seed).normal(size=length))


def naive_lifting_forward(x, j0, offsets, weights):
    """Independent scalar-loop reference for the lifting decomposition."""
    s = list(map(float, x))
    details = {}
    J = len(s).bit_length() - 1
    for j in range(J - 1, j0 - 1, -1):
        even = s[0::2]
        odd = s[1::2]
        d = []
        for k in range(len(odd)):
            pred = sum(
                w * even[(k + int(off)) % len(even)]
                for off, w in zip(offsets, weights)
            )
            d.append(odd[k] - pred)
        details[j] = d
        s = even
    return s, details


def roll_predict_odds(s, filter_id):
    """The lifting prediction as first written: one np.roll copy per tap."""
    offsets, weights = FILTERS[filter_id]
    out = np.zeros_like(s)
    for off, w in zip(offsets, weights):
        out += w * np.roll(s, -int(off), axis=-1)
    return out


def roll_forward(x, j0, filter_id):
    s, details = x, {}
    for j in range(x.shape[-1].bit_length() - 2, j0 - 1, -1):
        even = s[..., 0::2]
        details[j] = s[..., 1::2] - roll_predict_odds(even, filter_id)
        s = even
    return s, details


def roll_inverse(coarse, details, filter_id):
    s = coarse
    for j in sorted(details):
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],))
        out[..., 0::2] = s
        out[..., 1::2] = details[j] + roll_predict_odds(s, filter_id)
        s = out
    return s


class TestSegment:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Segment([1.0, np.nan, 2.0])

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            Segment([1.0, np.inf])

    def test_rejects_too_short(self):
        with pytest.raises(InvalidInputError):
            Segment([1.0])

    def test_values_read_only(self):
        seg = Segment([1.0, 2.0])
        with pytest.raises(ValueError):
            seg.values[0] = 3.0


class TestPadding:
    def test_length_three(self):
        padded = pad_to_pow2(Segment([1.0, 2.0, 3.0]))
        assert padded.values.tolist() == [1.0, 2.0, 3.0, 1.0]

    def test_length_twelve_tail_copies_head(self):
        v = np.arange(12, dtype=float)
        padded = pad_to_pow2(Segment(v))
        assert len(padded) == 16
        np.testing.assert_array_equal(padded.values[12:], v[:4])

    def test_power_of_two_is_identity(self):
        seg = Segment([4.0, 7.0])
        assert pad_to_pow2(seg) is seg

    @given(st.integers(min_value=2, max_value=130), st.integers(0, 2**31))
    def test_idempotent(self, length, seed):
        seg = random_segment(length, seed)
        once = pad_to_pow2(seg)
        twice = pad_to_pow2(once)
        np.testing.assert_array_equal(once.values, twice.values)


class TestForward:
    def test_constant_segment_zero_details_dd2(self):
        p = forward_dwt(Segment([5.0, 5.0, 5.0, 5.0]), filter_id="dd2")
        for d in p.details:
            np.testing.assert_array_equal(d, np.zeros_like(d))
        # the coarse coefficient alone reconstructs the constant
        np.testing.assert_allclose(inverse_dwt(p).values, 5.0)

    @pytest.mark.parametrize("filter_id", sorted(FILTERS))
    def test_constant_annihilation_all_filters(self, filter_id):
        p = forward_dwt(Segment(np.full(32, 7.5)), filter_id=filter_id)
        for d in p.details:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_hand_lifting_example(self):
        p = forward_dwt(Segment([0.0, 1.0, 2.0, 3.0]), j0=1, filter_id="dd2")
        np.testing.assert_allclose(p.detail(1), [0.0, 2.0])
        np.testing.assert_allclose(p.coarse, [0.0, 2.0])

    def test_coefficient_counts_length_16(self):
        p = forward_dwt(random_segment(16, 3))
        assert p.j0 == 0 and p.J == 4
        assert p.coarse.size == 1
        assert [d.size for d in p.details] == [1, 2, 4, 8]

    @pytest.mark.parametrize("filter_id", sorted(FILTERS))
    @pytest.mark.parametrize("length", [8, 32])
    def test_matches_naive_lifting_oracle(self, filter_id, length):
        x = np.random.default_rng(length).normal(size=length)
        offsets, weights = FILTERS[filter_id]
        ref_coarse, ref_details = naive_lifting_forward(x, 0, offsets, weights)
        coarse, details = forward_array(x, j0=0, filter_id=filter_id)
        np.testing.assert_allclose(coarse, ref_coarse, atol=1e-12)
        for j, d in ref_details.items():
            np.testing.assert_allclose(details[j], d, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ShapeError):
            forward_dwt(Segment(np.arange(6.0)))

    def test_bad_levels_rejected(self):
        with pytest.raises(LevelError):
            forward_dwt(Segment(np.arange(8.0)), j0=3)
        with pytest.raises(LevelError):
            forward_dwt(Segment(np.arange(8.0)), j0=-1)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ShapeError):
            forward_dwt(Segment(np.arange(8.0)), filter_id="haar")


class TestInverse:
    @pytest.mark.parametrize("filter_id", sorted(FILTERS))
    @pytest.mark.parametrize("length", POW2_LENGTHS)
    def test_perfect_reconstruction(self, filter_id, length):
        x = np.random.default_rng(length + 1).normal(size=length) * 100
        p = forward_dwt(Segment(x), filter_id=filter_id)
        err = np.max(np.abs(inverse_dwt(p).values - x))
        assert err <= 1e-10 * (1 + np.max(np.abs(x)))

    def test_zero_pyramid_gives_zero_segment(self):
        p = WaveletPyramid(j0=0, J=3, coarse=np.zeros(1),
                           details=(np.zeros(1), np.zeros(2), np.zeros(4)))
        np.testing.assert_array_equal(inverse_dwt(p).values, np.zeros(8))

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ShapeError):
            WaveletPyramid(j0=0, J=3, coarse=np.zeros(1),
                           details=(np.zeros(1), np.zeros(3), np.zeros(4)))
        with pytest.raises(ShapeError):
            WaveletPyramid(j0=0, J=3, coarse=np.zeros(2),
                           details=(np.zeros(1), np.zeros(2), np.zeros(4)))

    def test_forward_of_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        p = WaveletPyramid(
            j0=1, J=4, coarse=rng.normal(size=2),
            details=tuple(rng.normal(size=2**j) for j in range(1, 4)),
            filter_id="dd6",
        )
        q = forward_dwt(inverse_dwt(p), j0=1, filter_id="dd6")
        np.testing.assert_allclose(q.coarse, p.coarse, atol=1e-10)
        for a, b in zip(q.details, p.details):
            np.testing.assert_allclose(a, b, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    exponent=st.integers(2, 6),
    filter_id=st.sampled_from(sorted(FILTERS)),
)
def test_round_trip_property(seed, exponent, filter_id):
    x = np.random.default_rng(seed).normal(size=2**exponent) * 10
    coarse, details = forward_array(x, filter_id=filter_id)
    back = inverse_array(coarse, details, filter_id=filter_id)
    assert np.max(np.abs(back - x)) <= 1e-10 * (1 + np.max(np.abs(x)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(-5, 5, allow_nan=False),
    filter_id=st.sampled_from(sorted(FILTERS)),
)
def test_linearity_property(seed, alpha, beta, filter_id):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=16)
    y = rng.normal(size=16)
    cx, dx = forward_array(x, filter_id=filter_id)
    cy, dy = forward_array(y, filter_id=filter_id)
    cz, dz = forward_array(alpha * x + beta * y, filter_id=filter_id)
    np.testing.assert_allclose(cz, alpha * cx + beta * cy, atol=1e-12 * 100)
    for j in dz:
        np.testing.assert_allclose(dz[j], alpha * dx[j] + beta * dy[j],
                                   atol=1e-12 * 100)


@st.composite
def lifting_inputs(draw):
    """Batches of 2..256 samples at 2**-500..2**500, with signed zeros."""
    J = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (1 << J,)
    k = draw(st.one_of(st.sampled_from([-500, 500]), st.integers(-500, 500)))
    x = np.ldexp(rng.normal(size=shape), k)
    zero = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    x[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
    return x, draw(st.integers(0, J - 1)), draw(st.sampled_from(sorted(FILTERS)))


# levels narrower than a filter's reach (12 taps for sym6) wrap more than once
@settings(max_examples=300, deadline=None)
@given(lifting_inputs())
def test_lifting_is_bit_identical_to_roll_reference(case):
    x, j0, filter_id = case
    coarse, details = forward_array(x, j0=j0, filter_id=filter_id)
    want_coarse, want_details = roll_forward(x, j0, filter_id)
    assert coarse.tobytes() == want_coarse.tobytes()
    assert sorted(details) == sorted(want_details)
    for j, d in want_details.items():
        assert details[j].tobytes() == d.tobytes()
    back = inverse_array(coarse, details, filter_id=filter_id)
    assert back.tobytes() == roll_inverse(coarse, details, filter_id).tobytes()
