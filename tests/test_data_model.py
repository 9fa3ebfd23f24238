import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tamperscan import (
    ConfigError,
    CountyKey,
    DataError,
    Dataset,
    NumericalError,
    SchemaError,
    SyntheticSpec,
    apply_standardization,
    generate_synthetic,
    standardize,
)
from tamperscan.data_model import _format_compiled, format_floats, logistic, substream
from tamperscan.fips import normalize_fips

from conftest import make_dataset


class TestCountyKey:
    def test_valid(self):
        key = CountyKey(fips="13121", state="GA", name="Fulton")
        assert key.fips == "13121"

    def test_fips_must_be_five_digits(self):
        with pytest.raises(DataError):
            CountyKey(fips="1312", state="GA", name="x")
        with pytest.raises(DataError):
            CountyKey(fips="1312a", state="GA", name="x")

    def test_state_must_match_fips_prefix(self):
        with pytest.raises(DataError, match="encodes state GA"):
            CountyKey(fips="13121", state="PA", name="Fulton")

    @pytest.mark.parametrize("fips", ["0000²", "１３００１", "13 21", " 1312"])
    def test_fips_must_be_ascii_digits(self, fips):
        with pytest.raises(DataError):
            CountyKey(fips=fips, state="GA", name="x")


class TestNormalizeFips:
    @pytest.mark.parametrize("raw, code", [("13121", "13121"), ("1001", "01001"), (" 7 ", "00007")])
    def test_pads_ascii_digits(self, raw, code):
        assert normalize_fips(raw) == code

    @pytest.mark.parametrize("raw", ["１３００１", "²", "١٣١٢١", "123456", "1a001", "", "  "])
    def test_anything_but_one_to_five_ascii_digits_is_invalid(self, raw):
        with pytest.raises(DataError) as err:
            normalize_fips(raw)
        assert str(err.value) == f"invalid FIPS code {raw!r}"


def _share(rep, dem):
    """Dataset.shares for one county with the given tally."""
    ds = make_dataset([("26163", "MI", "Wayne", [1.0, 2.0], (rep, dem))])
    return ds.shares()[0]


class TestVoteShare:
    def test_simple_fraction(self):
        assert _share(600, 400) == 0.6

    def test_exact_rational_oracle(self):
        # independent computation through exact rational arithmetic
        expected = float(Fraction(264553, 264553 + 597170))
        assert _share(264553, 597170) == expected


class TestStandardize:
    def test_three_point_column(self):
        # population SD of [1,2,3] is sqrt(2/3); z-scores are +-sqrt(3/2)
        Xs, params = standardize(np.array([[1.0], [2.0], [3.0]]), ["a"])
        expected = np.sqrt(1.5)
        assert Xs[:, 0] == pytest.approx([-expected, 0.0, expected], abs=1e-15)
        assert params.mean[0] == 2.0
        assert params.scale[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 7)) * rng.uniform(0.1, 30.0, size=7) + rng.normal(size=7)
        names = [f"c{j}" for j in range(7)]
        Xs, params = standardize(X, names)
        direct = (X - X.mean(axis=0)) / X.std(axis=0)
        assert np.allclose(Xs, direct, atol=1e-12)
        assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Xs.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_dropped(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        Xs, params = standardize(X, ["varies", "flat"])
        assert params.names == ("varies",)
        assert params.dropped == ("flat",)
        assert Xs.shape == (3, 1)

    def test_near_constant_large_mean_dropped(self):
        # rounding residue on a column of identical large values
        col = np.full(5, 1e9)
        col[2] += 1e-4
        X = np.column_stack([np.arange(5.0), col])
        _, params = standardize(X, ["ok", "huge_flat"])
        assert "huge_flat" in params.dropped

    def test_all_constant_raises(self):
        with pytest.raises(NumericalError):
            standardize(np.ones((4, 2)), ["a", "b"])

    def test_apply_is_permutation_invariant(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        names = ["a", "b", "c", "d"]
        _, params = standardize(X, names)
        Xnew = rng.normal(size=(3, 4))
        base = apply_standardization(params, names, Xnew)
        perm = [2, 0, 3, 1]
        shuffled = apply_standardization(
            params, [names[j] for j in perm], Xnew[:, perm]
        )
        assert np.array_equal(base, shuffled)

    def test_apply_missing_feature(self):
        X = np.arange(8.0).reshape(4, 2)
        _, params = standardize(X, ["a", "b"])
        with pytest.raises(SchemaError, match="missing"):
            apply_standardization(params, ["a", "z"], np.zeros((1, 2)))

    def test_apply_vector(self):
        X = np.arange(8.0).reshape(4, 2)
        Xs, params = standardize(X, ["a", "b"])
        row = apply_standardization(params, ["a", "b"], X[1])
        assert row.shape == (2,)
        assert np.array_equal(row, Xs[1])

    def test_peak_memory_is_one_copy(self):
        # the retained columns are copied once and centred and scaled in place
        rng = np.random.default_rng(8)
        F = rng.normal(size=(1500, 3))
        X = F @ rng.normal(size=(3, 120)) + 0.05 * rng.normal(size=(1500, 120))
        names = [f"c{j}" for j in range(120)]
        standardize(X[:10], names)  # warm-up
        tracemalloc.start()
        try:
            Xs, params = standardize(X, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(Xs, (X - params.mean) / params.scale)
        assert peak <= 1.5 * X.nbytes


class TestDataset:
    def test_duplicate_fips_rejected(self):
        rows = [
            ("13001", "GA", "A", [1.0, 2.0], (1, 1)),
            ("13001", "GA", "B", [3.0, 4.0], (1, 1)),
        ]
        with pytest.raises(DataError, match="duplicate"):
            make_dataset(rows)

    def test_alaska_rejected(self):
        rows = [("02013", "AK", "Aleutians", [1.0, 2.0], (1, 1))]
        with pytest.raises(DataError, match="Alaska"):
            make_dataset(rows)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset.build(
                keys=[CountyKey("13001", "GA", "A")],
                feature_names=("a", "b"),
                X=np.zeros((1, 3)),
                rep=[1],
                dem=[1],
                target_year=2020,
            )

    def test_shares(self, six_county_dataset):
        ds = six_county_dataset
        assert ds.shares()[0] == 0.6
        assert ds.X[1, ds.feature_names.index("share_2016")] == 0.5

    def test_zero_total_share_names_county(self):
        rows = [
            ("13001", "GA", "A", [1.0, 2.0], (0, 0)),
            ("13003", "GA", "B", [3.0, 4.0], (5, 5)),
        ]
        with pytest.raises(DataError, match="county 13001 has a zero two-party total"):
            make_dataset(rows)

    def test_negative_count_names_county(self):
        rows = [
            ("13001", "GA", "A", [1.0, 2.0], (5, 5)),
            ("13003", "GA", "B", [3.0, 4.0], (-500, 600)),
        ]
        with pytest.raises(DataError, match="county 13003 has a negative vote count in 2020"):
            make_dataset(rows)

    def test_tallies_must_be_one_per_county(self):
        with pytest.raises(DataError, match="tally shapes"):
            Dataset.build(
                keys=[CountyKey("13001", "GA", "A")],
                feature_names=("a",),
                X=np.zeros((1, 1)),
                rep=[[1, 2]],
                dem=[[1, 2]],
                target_year=2020,
            )

    def test_subset_alignment(self, six_county_dataset):
        ds = six_county_dataset
        sub = ds.subset([4, 1])
        assert [k.fips for k in sub.keys] == ["42003", "13003"]
        assert np.array_equal(sub.X[0], ds.X[4])
        assert sub.rep[1] == ds.rep[1]
        assert sub.X[1, 2] == ds.X[1, 2]  # share_2016

    def test_subset_states(self, six_county_dataset):
        ga = six_county_dataset.subset_states({"GA"})
        assert ga.n == 3
        assert all(k.state == "GA" for k in ga.keys)
        with pytest.raises(ConfigError):
            six_county_dataset.subset_states({"VT"})

    def test_index_of(self, six_county_dataset):
        assert six_county_dataset.index_of("42001") == 3
        with pytest.raises(DataError):
            six_county_dataset.index_of("99999")

    def test_arrays_read_only(self, six_county_dataset):
        ds = six_county_dataset
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.rep[0] = 99


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, 0).normal(size=5)
        b = substream(7, 0).normal(size=5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = substream(7, 0).normal(size=5)
        b = substream(7, 1).normal(size=5)
        assert not np.array_equal(a, b)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_counties=50, n_features=8, n_active=3, seed=42)
        ds1, b1 = generate_synthetic(spec)
        ds2, b2 = generate_synthetic(spec)
        assert np.array_equal(ds1.X, ds2.X)
        assert np.array_equal(ds1.rep, ds2.rep)
        assert np.array_equal(b1, b2)
        assert [k.fips for k in ds1.keys] == [k.fips for k in ds2.keys]

    def test_seed_changes_output(self):
        spec_a = SyntheticSpec(n_counties=50, n_features=8, n_active=3, seed=1)
        spec_b = SyntheticSpec(n_counties=50, n_features=8, n_active=3, seed=2)
        ds_a, _ = generate_synthetic(spec_a)
        ds_b, _ = generate_synthetic(spec_b)
        assert not np.array_equal(ds_a.X, ds_b.X)

    def test_active_count_and_shape(self):
        spec = SyntheticSpec(n_counties=30, n_features=12, n_active=4, seed=9)
        ds, beta = generate_synthetic(spec)
        assert ds.n == 30 and ds.p == 12
        assert int(np.count_nonzero(beta)) == 4

    def test_share_bounds_and_totals(self):
        spec = SyntheticSpec(n_counties=400, n_features=10, n_active=3, seed=3)
        ds, _ = generate_synthetic(spec)
        shares = ds.shares()
        assert shares.min() >= 0.0 and shares.max() <= 1.0
        totals = ds.rep + ds.dem
        assert totals.min() >= 10**3 - 1
        assert totals.max() <= 10**6 + 1

    def test_tallies_quantize_the_underlying_share(self):
        # rep = round(share * total),  so |rep/total - share| <= 0.5/total.
        # Rebuild the generator's continuous share from its own streams.
        spec = SyntheticSpec(n_counties=100, n_features=6, n_active=2, seed=13)
        ds, beta = generate_synthetic(spec)
        X = ds.X
        noise = substream(13, 2).normal(0.0, spec.noise_sd, size=100)
        cont = np.clip(logistic(0.1 + X @ beta) + noise, 0.02, 0.98)
        totals = ds.rep + ds.dem
        assert np.all(np.abs(ds.shares() - cont) <= 0.5 / totals + 1e-12)

    def test_mean_share_near_intercept_level(self):
        ds, _ = generate_synthetic(SyntheticSpec(seed=0))
        # logistic(0.1) ~ 0.525; slope terms average out
        assert abs(ds.shares().mean() - 0.525) < 0.05

    def test_no_alaska_and_valid_fips(self):
        ds, _ = generate_synthetic(SyntheticSpec(n_counties=60, seed=5))
        assert all(k.state != "AK" for k in ds.keys)
        assert all(len(k.fips) == 5 and k.fips.isdigit() for k in ds.keys)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_features=3, n_active=4)
        with pytest.raises(ConfigError):
            SyntheticSpec(noise_sd=-0.1)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_counties=0)

    def test_n_features_stops_at_sys_maxsize(self):
        assert SyntheticSpec(n_features=sys.maxsize).n_features == sys.maxsize
        with pytest.raises(ConfigError) as err:
            SyntheticSpec(n_features=sys.maxsize + 1)
        assert str(err.value) == f"n_features must be at most {sys.maxsize}, got {sys.maxsize + 1}"


def _fast_range(rng, n):
    """n doubles with random signs, mantissas and exponents, 2^-60 <= |x| < 2^52."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << 63
    biased = rng.integers(1023 - 60, 1023 + 52, n, dtype=np.uint64) << 52
    return (sign | biased | rng.integers(0, 2**52, n, dtype=np.uint64)).view(np.float64)


def _with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestFormatFloats:
    """The compiled `format_values` against repr and '%.2f', byte for byte."""

    @staticmethod
    def _assert_compiled_matches(lib, values, layout, reference):
        values = np.asarray(values, dtype=np.float64)
        text = _format_compiled(lib, layout.encode(), values, values.size)
        assert text is not None, "the C formatter declined a value in its range"
        expected = "".join([reference(v) + "," for v in values.tolist()])
        if text != expected:  # name the first value that differs, not a 20 MB diff
            for v, got in zip(values.tolist(), text.split(",")):
                assert got == reference(v), v

    @pytest.mark.parametrize(
        "layout, reference", [("%r,", repr), ("%.2f,", "%.2f".__mod__)], ids=["repr", "fixed2"]
    )
    def test_bit_identical_over_the_fast_range(self, kernels, layout, reference):
        rng = np.random.default_rng(26)
        one_decimal = np.concatenate([
            np.arange(-200_000, 200_000) / 10, np.round(rng.uniform(-1e7, 1e7, 200_000), 1),
        ])
        # exact digit ties at 2^k + j / 2^(52 - k): the last digit is a half
        ties = [2.0**k + rng.integers(0, 2 ** (60 - k), 10_000) * 2.0 ** (k - 52) for k in range(40, 52)]
        nines = [float("9" * d + f"e{e}") for d in range(1, 17) for e in range(-19, 16 - d)]
        switches = [1e-4, 9.999999999999999e-05, 1.0000000000000001e-4, 1e-19, 1e15, 0.5, 1.0]
        values = np.concatenate([
            _fast_range(rng, 1_000_000), one_decimal, *ties,
            _with_neighbours(2.0 ** np.arange(-60, 52)), _with_neighbours(nines),
            _with_neighbours(switches), [0.0, -0.0, 2.0**50 + 0.25, -(2.0**52 - 1)],
        ])
        values = values[(np.abs(values) >= 2.0**-60) & (np.abs(values) < 2.0**52) | (values == 0)]
        assert values.size >= 1_300_000
        self._assert_compiled_matches(kernels, values, layout, reference)

    def test_known_bytes(self, kernels):
        values = [2.0**50 + 0.25, 1e-4, 9.9e-5, 0.125, 0.375, -0.001, -0.0, 0.0]
        text = _format_compiled(kernels, b"%r %.2f|", np.repeat(values, 2), len(values))
        assert text.split("|")[:-1] == [
            "1125899906842624.2 1125899906842624.25", "0.0001 0.00", "9.9e-05 0.00",
            "0.125 0.12", "0.375 0.38", "-0.001 -0.00", "-0.0 -0.00", "0.0 0.00",
        ]
        # %d is int(), so it truncates toward zero; %% is a literal %
        ints = [0.0, -0.0, 7.0, -0.5, 2.5, -(2.0**52 - 1)]
        text = _format_compiled(kernels, b"%d%%,", np.array(ints), len(ints))
        assert text == "".join("%d%%," % v for v in ints)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                                     1e300, 2.0**52, 1e16, 2.0**-61])
    def test_out_of_range_values_decline_to_the_reference(self, kernels, bad):
        values = np.array([0.1, bad, bad, 0.2])
        assert _format_compiled(kernels, b"%r,%r %.2f,%r", values, 1) is None
        assert format_floats("%r,%r %.2f,%r", values) == "%r,%r %.2f,%r" % tuple(values.tolist())

    def test_other_layouts_decline_to_the_reference(self, kernels):
        two = np.array([1.5, 2.0])
        # another conversion, too few or too many values for the layout
        for layout, values in (("%s|%r", two), ("%.3f|%r", two), ("%r|%r", two[:1]),
                               ("%r|", two), ("%", two[:0]), ("a\0b", two[:0])):
            assert _format_compiled(kernels, layout.encode(), values, 1) is None
        assert format_floats("%s|%.3f", two) == "1.5|2.000"
        assert format_floats("a\0b,%r\r\n", two[:1]) == "a\0b,1.5\r\n"
        with pytest.raises(TypeError):
            format_floats("%r|%r", two[:1])
