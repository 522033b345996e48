"""The batch contract of ``stats``, ``models`` and ``orbit``.

Functions of data treat leading axes as replicates: row ``i`` of a
``(reps, n)`` batch's result is the function of row ``i``, and one vector
gives a 0-d numpy value.  There is no separate single-vector path that
could return other numbers: rows match single vectors to the bit, except
for the last-bit effects of BLAS below.  ``log H`` of an argument does not
depend on the other arguments of its call, so the orthogonal orbit
averages need no tolerance of their own.
"""

import numpy as np
import pytest

from invlab import cli, experiments, models, orbit
from invlab.rng import spawn_generator

_N, _REPS, _SEED = 12, 5, 3
_SPIKE = experiments.AlternativeSpec("single_spike", 1.0)
_H = models.cosine_profile({1: 2.0})

#: A matrix product goes to BLAS, which picks its kernel, and so its summation
#: order, by shape: a dot product for one vector, gemv or gemm for a batch.
_BLAS = 1e-12


def _model_data(model: str) -> np.ndarray:
    sampler = cli.resolve_model(model, nu=3, sigma=1.0)
    return sampler.at(_N, experiments.NULL, _SEED).sample(_REPS, spawn_generator(_SEED, 1))


def _m(n: int) -> models.MeanVector:
    return models.MeanVector(np.linspace(-1.0, 1.0, n))


def _design_case():
    design = spawn_generator(_SEED, 2).normal(size=(_N, 2))
    q, _ = np.linalg.qr(design)
    m = _m(_N).entries
    return lambda y: orbit.lbar_design_orthogonal(m - q @ (q.T @ m), design, y)


#: (id, function of a batch, its data, relative tolerance; 0 asks for the same bits).
_CASES = [
    *(
        (f"{model}/{name}", experiments.make_statistic(name, _N, alt=_SPIKE, seed=_SEED),
         _model_data(model), _BLAS if name in ("np", "quadratic", "quadratic_spacings") else 0)
        for model, names in cli._MODEL_STATS.items()
        for name in names
    ),
    ("loglik_ratio/normal", lambda x: models.loglik_ratio(models.normal_family(), _m(_N), 0.0, x),
     _model_data("normal"), _BLAS),
    ("loglik_ratio/logistic",
     lambda x: models.loglik_ratio(models.logistic_location_family(), _m(_N), 0.0, x),
     _model_data("logistic"), 0),
    ("spacings_loglik_approx", lambda d: models.spacings_loglik_approx(_H, d),
     _model_data("spacings"), _BLAS),
    ("spacings_loglik_exact", lambda d: models.spacings_loglik_exact(_H, d),
     _model_data("spacings"), 0),
    ("lbar_orthogonal", lambda x: orbit.lbar_orthogonal(_m(_N), x), _model_data("normal"), 0),
    ("lbar_design_orthogonal", _design_case(), _model_data("normal"), _BLAS),
    ("lbar_permutation/exhaustive",
     lambda x: orbit.lbar_permutation(
         models.poisson_family(), _m(6), x, orbit.OrbitSpec("permutation_exhaustive")),
     _model_data("poisson")[:, :6], _BLAS),
    ("lbar_permutation/spike",
     lambda x: orbit.lbar_permutation(
         models.poisson_family(), _SPIKE.mean_entries(_N, _SEED), x, orbit.OrbitSpec("permutation")),
     _model_data("poisson"), 0),
    ("lbar_permutation/monte_carlo",
     lambda x: orbit.lbar_permutation(
         models.poisson_family(), _m(_N), x, orbit.OrbitSpec("permutation", mc_reps=500), seed=_SEED),
     _model_data("poisson"), _BLAS),
]


@pytest.mark.parametrize("fn, data, rtol", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES])
def test_batch_rows_equal_single_vectors(fn, data, rtol):
    batch = fn(data)
    singles = [fn(row) for row in data]
    for single in singles:
        assert isinstance(single, (np.ndarray, np.generic)) and np.ndim(single) == 0
    assert np.shape(batch) == (_REPS,)
    if rtol:
        np.testing.assert_allclose(batch, singles, rtol=rtol, atol=rtol)
    else:
        assert np.asarray(singles).tobytes() == np.asarray(batch).tobytes()
