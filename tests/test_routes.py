"""Each record compares two routes, and the structured routes stay structured."""

import numpy as np
import pytest

from fdphase import numerics
from fdphase.pegg_barnett import SpaceConfig, build_phase_frame, number_shift_operator
from fdphase.report import RunManifest
from fdphase.suites import SUITE_NAMES, run_suites


def _record(dim, theta0, check_id):
    report = run_suites(RunManifest(dim=dim, theta0=theta0, suites=("pb-core",)))
    (record,) = [r for r in report.records if r.check_id == check_id]
    return record


def _is_monomial(entries):
    nonzero = entries != 0
    return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1))


class TestRecordsCompareTwoRoutes:
    @pytest.mark.parametrize("dim, theta0", [(31, 0.3), (64, 2.9)])
    def test_phase_state_components_against_the_fft(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        dft = np.fft.ifft(np.eye(dim), axis=0, norm="ortho")
        twisted = dft * np.exp(1j * theta0 * np.arange(dim))[:, None]
        deviation = np.max(np.abs(build_phase_frame(config).basis.entries - twisted))
        assert deviation > 0.0
        record = _record(dim, theta0, "phase_state_components")
        assert record.max_deviation == pytest.approx(deviation, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("dim, theta0", [(31, 0.3), (64, 2.9)])
    def test_number_shift_diagonal_against_powers_of_inverse_q(self, dim, theta0):
        config = SpaceConfig.from_dim(dim, theta0)
        factors = np.full(dim, np.conj(config.q))
        factors[0] = 1.0
        powers = np.cumprod(factors)  # q^-n by repeated multiplication
        deviation = np.max(np.abs(np.diag(number_shift_operator(config).entries) - powers))
        assert deviation > 0.0
        record = _record(dim, theta0, "number_shift_diagonal_in_number_basis")
        assert record.max_deviation == pytest.approx(deviation, rel=1e-9, abs=0.0)


class TestStructuredPowers:
    def test_run_takes_no_dense_power_and_no_dense_monomial_product(self, monkeypatch):
        powers, products = [], []
        matrix_power = np.linalg.matrix_power
        gram_deviation = numerics._gram_deviation

        def counted_power(*args, **kwargs):
            powers.append(args)
            return matrix_power(*args, **kwargs)

        def counted_product(columns):
            products.append(_is_monomial(columns))
            return gram_deviation(columns)

        monkeypatch.setattr(np.linalg, "matrix_power", counted_power)
        monkeypatch.setattr(numerics, "_gram_deviation", counted_product)
        report = run_suites(RunManifest(dim=64, theta0=2.9, eta=1.5, suites=SUITE_NAMES))
        assert report.status_counts()["fail"] == 0
        assert powers == []
        assert products and not any(products)
