"""The shared averaging driver against an explicit Kronecker-product oracle,
the Clifford layer's single pass, and twirls of non-Hermitian operators."""

import numpy as np
import pytest

from pru_lab import (
    DensityMatrix,
    DomainError,
    ExperimentConfig,
    StateVector,
    SupportOperator,
    build_state,
    clifford_twirl,
    distinct_overlap_after_clifford,
    ensemble_twirl,
    enumerate_cliffords,
    gentle_normalize,
    haar_twirl_exact,
    haar_twirl_mc,
    pf_twirl,
    pf_twirl_mc,
    pru_average_state,
    run_security_experiment,
    sample_clifford,
    trace_distance,
)
from pru_lab import clifford, twirls
from pru_lab.operators import distinct_mask, haar_unitaries
from pru_lab.twirls import MC_CHUNK

from conftest import random_state


def kron_oracle(X: np.ndarray, us: np.ndarray, t: int):
    """Slow reference: per-sample (U^{x t} x I) X (.)^dag built from
    explicit Kronecker products, returned as a (count, D, D) stack."""
    d = us.shape[1]
    dim_e = X.shape[0] // d**t
    out = []
    for U in us:
        M = U
        for _ in range(t - 1):
            M = np.kron(M, U)
        big = np.kron(M, np.eye(dim_e))
        out.append(big @ X @ big.conj().T)
    return np.stack(out)


def _clifford_batch(d, count, rng):
    n = d.bit_length() - 1
    seeds = rng.integers(0, 2**31, size=count)
    return np.stack([sample_clifford(n, int(s)).to_dense() for s in seeds])


ENSEMBLES = {"haar": haar_unitaries, "pf": twirls._pf_unitaries, "clifford": _clifford_batch}


def _inputs(d, t, dim_e, seed):
    """Pure, rank-1 density, full-rank Hermitian and non-Hermitian inputs."""
    total = d**t * dim_e
    psi = random_state(total, seed)
    rng = np.random.default_rng(seed + 1)
    A = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    return {
        "pure": psi,
        "rank1_density": psi.to_density(),
        "full_rank_hermitian": A + A.conj().T,
        "non_hermitian": A,
    }


def _matrix(x):
    if isinstance(x, StateVector):
        return np.outer(x.amplitudes, x.amplitudes.conj())
    return np.asarray(getattr(x, "entries", x))


# d = 3 is not a qubit register, so it has no Clifford ensemble
DRIVER_CASES = [
    (d, t, dim_e, ensemble)
    for d, t, dim_e in [(2, 2, 1), (2, 3, 2), (4, 2, 2), (3, 2, 3), (2, 4, 3), (4, 1, 2)]
    for ensemble in sorted(ENSEMBLES)
    if ensemble != "clifford" or d & (d - 1) == 0
]


@pytest.mark.parametrize("d,t,dim_e,ensemble", DRIVER_CASES)
def test_driver_matches_kron_oracle(d, t, dim_e, ensemble):
    rng = np.random.default_rng(d * 100 + t * 10 + dim_e)
    # two uneven batches exercise the accumulation across batches
    batches = [ENSEMBLES[ensemble](d, 5, rng), ENSEMBLES[ensemble](d, 7, rng)]
    us = np.concatenate(batches)
    mask = distinct_mask(d, t)
    weights = np.repeat(mask, dim_e).astype(float)
    for label, x in _inputs(d, t, dim_e, seed=d + t + dim_e).items():
        X = _matrix(x)
        per_sample = kron_oracle(X, us, t)
        want = per_sample.mean(axis=0)
        want_se = np.sqrt(
            np.sum(np.abs(per_sample - want) ** 2) / (len(us) * (len(us) - 1))
        )
        want_values = np.einsum("i,sii->s", weights, per_sample)
        avg = twirls._average_conjugation(x, d, t, iter(batches), weights=mask)
        assert np.abs(avg.mean - want).max() < 1e-12, label
        assert abs(avg.std_error_fro - want_se) < 1e-12, label
        assert np.abs(avg.values - want_values).max() < 1e-12, label
        assert avg.was_state == isinstance(x, (StateVector, DensityMatrix))


def test_driver_sub_batches_match_whole_batches(monkeypatch):
    d, t, dim_e = 2, 2, 2
    us = haar_unitaries(d, 9, np.random.default_rng(4))
    x = _inputs(d, t, dim_e, seed=4)["full_rank_hermitian"]
    whole = twirls._average_conjugation(x, d, t, [us])
    monkeypatch.setattr(twirls, "_SUB_BATCH_ELEMENTS", 3 * 8 * 8)  # three samples at a time
    split = twirls._average_conjugation(x, d, t, [us])
    assert np.abs(whole.mean - split.mean).max() < 1e-12
    assert np.abs(whole.mean - kron_oracle(_matrix(x), us, t).mean(axis=0)).max() < 1e-12


def test_per_sample_overlaps_match_direct_projection():
    n, t, dim_e = 2, 2, 3
    d = 2**n
    psi = random_state(d**t * dim_e, 12)
    samples, seed = 40, 6
    info = twirls.distinct_overlap_after_clifford(
        psi, n, t, method="monte_carlo", samples=samples, seed=seed
    )
    mask = np.repeat(distinct_mask(d, t), dim_e)
    direct = []
    for i in range(samples):
        U = sample_clifford(n, [seed, i // MC_CHUNK, i % MC_CHUNK]).to_dense()
        big = np.kron(np.kron(U, U), np.eye(dim_e))
        direct.append(float(np.sum(np.abs((big @ psi.amplitudes)[mask]) ** 2)))
    assert info["overlap"] == pytest.approx(np.mean(direct), abs=1e-12)
    assert info["std_error"] == pytest.approx(np.std(direct, ddof=1) / np.sqrt(samples), abs=1e-12)
    twirled = clifford_twirl(psi, n, t, method="monte_carlo", samples=samples, seed=seed)
    assert np.abs(info["state"].entries - twirled.entries).max() < 1e-12


def _documented_stream(ensemble, d, samples, seed):
    """The unitaries a Monte-Carlo twirl must average, rebuilt from the
    documented seed layout: chunk c of MC_CHUNK draws from the seed
    [seed, c], and Clifford sample i from [seed, i // MC_CHUNK, i % MC_CHUNK]."""
    if ensemble == "clifford":
        seeds = [[seed, i // MC_CHUNK, i % MC_CHUNK] for i in range(samples)]
        return clifford.sample_clifford_unitaries(d.bit_length() - 1, seeds)
    chunks = range(0, samples, MC_CHUNK)
    return np.concatenate([
        ENSEMBLES[ensemble](d, min(MC_CHUNK, samples - start), np.random.default_rng([seed, c]))
        for c, start in enumerate(chunks)
    ])


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
def test_monte_carlo_twirls_seed_each_chunk_as_documented(ensemble):
    """Three chunks, the last of one sample, so a wrong chunk seed, a wrong
    per-sample seed or a dropped remainder moves the mean by about 1e-3."""
    d, t, samples, seed = 2, 2, 2 * MC_CHUNK + 1, 17
    psi = random_state(d**t, 5)
    twirl = {
        "haar": lambda: haar_twirl_mc(psi, d, t, samples, seed),
        "pf": lambda: pf_twirl_mc(psi, d, t, samples, seed),
        "clifford": lambda: clifford_twirl(psi, 1, t, method="monte_carlo", samples=samples, seed=seed),
    }[ensemble]()
    us = _documented_stream(ensemble, d, samples, seed)
    assert len(us) == samples
    want = kron_oracle(_matrix(psi), us, t).mean(axis=0)
    assert np.abs(twirl.entries - want).max() < 1e-12
    assert twirl.meta["samples"] == samples and twirl.meta["seed"] == seed


def test_security_run_samples_each_clifford_once(monkeypatch):
    seeds = []
    real = twirls.sample_clifford_unitaries

    def counting(n, batch):
        seeds.extend(tuple(seed) for seed in batch)
        return real(n, batch)

    monkeypatch.setattr(twirls, "sample_clifford_unitaries", counting)
    samples = 24
    run_security_experiment(
        ExperimentConfig(n=2, t=2, clifford_method="monte_carlo", clifford_samples=samples,
                         num_keys=2, seed=1)
    )
    assert len(seeds) == samples
    assert len(set(seeds)) == samples


def test_a_state_is_conjugated_once_per_sub_batch(monkeypatch):
    """A state vector is its own right factor, so every Monte-Carlo path
    hands each sub-batch to the kernel once; a non-Hermitian operator has
    two factors, so each sub-batch goes through twice.  MC_CHUNK + 1 draws
    make two chunks, each one sub-batch at this size."""
    calls = []
    real = twirls.apply_tensor_power

    def counting(mats, tensor, t):
        calls.append(len(mats))
        return real(mats, tensor, t)

    monkeypatch.setattr(twirls, "apply_tensor_power", counting)
    d, t, samples = 2, 2, MC_CHUNK + 1
    averages = {
        "haar": lambda x: haar_twirl_mc(x, d, t, samples, 3),
        "pf": lambda x: pf_twirl_mc(x, d, t, samples, 3),
        "clifford": lambda x: clifford_twirl(x, 1, t, method="monte_carlo", samples=samples, seed=3),
    }
    inputs = _inputs(d, t, 1, seed=2)
    for label, average in averages.items():
        for x, passes in ((inputs["pure"], 1), (inputs["non_hermitian"], 2)):
            calls.clear()
            average(x)
            assert calls == [MC_CHUNK] * passes + [1] * passes, label
    calls.clear()
    pru_average_state(inputs["pure"], t, 1, samples, 3)
    assert calls == [MC_CHUNK, 1]


@pytest.mark.parametrize("ops", [
    np.eye(2),
    haar_unitaries(3, 4, np.random.default_rng(0)),
    [],
], ids=["one-matrix", "wrong-dimension", "empty"])
def test_an_ensemble_that_is_not_a_stack_of_d_by_d_unitaries_is_a_domain_error(ops):
    with pytest.raises(DomainError, match=r"non-empty \(count, 2, 2\) stack"):
        ensemble_twirl(random_state(4, 0), ops, 2, 2)


@pytest.mark.parametrize("dim_e, distance", [(1, 0.061328), (2, 0.066929)])
def test_exact_security_run_at_four_copies_needs_no_enumeration(monkeypatch, dim_e, distance):
    """At t = 4 the Clifford layer is not a design, so the non-permutation
    terms of the projection matter; every quantity must match the
    enumerated group."""
    n, t, d, seed = 2, 4, 4, 7
    group = enumerate_cliffords(n)

    def refuse(*args, **kwargs):
        raise AssertionError("the exact Clifford twirl enumerated the group")

    assert not hasattr(twirls, "enumerate_cliffords")
    monkeypatch.setattr(clifford, "enumerate_cliffords", refuse)
    rep = run_security_experiment(
        ExperimentConfig(n=n, t=t, dim_e=dim_e, clifford_method="exact", seed=seed)
    )
    monkeypatch.undo()
    psi = build_state("random_pure", n, t, dim_e, seed)
    xi = ensemble_twirl(psi, group, d, t)
    gentle = gentle_normalize(xi, d, t)
    want = {
        "trace_distance_fr_hr": trace_distance(pf_twirl(xi, d, t), haar_twirl_exact(psi, d, t)),
        "pf_vs_haar_on_normalized": trace_distance(
            pf_twirl(gentle.phi, d, t), haar_twirl_exact(gentle.phi, d, t)
        ),
        "gentle_delta": gentle.delta,
        "distinct_overlap": gentle.overlap,
    }
    for key, value in want.items():
        assert rep.quantities[key] == pytest.approx(value, abs=1e-12), key
    assert rep.quantities["trace_distance_fr_hr"] == pytest.approx(distance, abs=1e-6)
    assert rep.passed


def test_twirls_keep_non_hermitian_operators():
    X = np.zeros((4, 4), dtype=complex)
    X[1, 2] = 1j  # i|01><10| on two qubit registers
    haar = haar_twirl_exact(X, 2, 2).entries
    pf = pf_twirl(X, 2, 2).entries
    assert np.abs(haar).max() == pytest.approx(1 / 3)
    assert np.abs(pf).max() == pytest.approx(1 / 2)
    # the single-qubit Clifford group is a 2-design
    group_mean = ensemble_twirl(X, enumerate_cliffords(1), 2, 2).entries
    assert np.abs(group_mean - haar).max() < 1e-12
    for mc, exact in (
        (haar_twirl_mc(X, 2, 2, 4000, 7), haar),
        (pf_twirl_mc(X, 2, 2, 4000, 8), pf),
        (clifford_twirl(X, 1, 2, method="monte_carlo", samples=2000, seed=9), haar),
    ):
        envelope = 3 * np.sqrt(mc.dim) * mc.meta["std_error_fro"]
        assert trace_distance(mc.entries, exact) < envelope


@pytest.mark.parametrize("method", ["exact", "monte_carlo", "ensemble_twirl"])
def test_a_twirl_of_a_state_is_a_density_matrix_and_of_anything_else_a_support_operator(method):
    d, t, group = 2, 2, enumerate_cliffords(1)
    twirl = {
        "exact": lambda x: haar_twirl_exact(x, d, t),
        "monte_carlo": lambda x: haar_twirl_mc(x, d, t, 64, 5),
        "ensemble_twirl": lambda x: ensemble_twirl(x, group, d, t),
    }[method]
    psi = random_state(d**t, 3)
    rho = twirl(psi)
    assert isinstance(rho, DensityMatrix) and isinstance(twirl(psi.to_density()), DensityMatrix)
    X = np.zeros((4, 4), dtype=complex)
    X[1, 2] = 1j  # i|01><10|, dense and on its support
    for x in (X, SupportOperator([6], [1j], 4)):
        out = twirl(x)
        assert type(out) is SupportOperator
        assert out.meta.keys() == rho.meta.keys() and out.meta["method"] == rho.meta["method"]
    if method == "ensemble_twirl":  # the driver's mean, held on its nonzero entries
        assert np.array_equal(out.entries, twirls._average_conjugation(X, d, t, [group]).mean)


@pytest.mark.parametrize("average", [
    lambda psi: haar_twirl_mc(psi, 2, 2, 1, 0),
    lambda psi: pf_twirl_mc(psi, 2, 2, 1, 0),
    lambda psi: clifford_twirl(psi, 1, 2, method="monte_carlo", samples=1, seed=0),
    lambda psi: distinct_overlap_after_clifford(psi, 1, 2, method="monte_carlo", samples=1),
    lambda psi: pru_average_state(psi, 2, 1, 1, 0),
], ids=["haar", "pf", "clifford", "overlap", "keyed"])
def test_a_monte_carlo_average_of_one_draw_is_refused(average):
    """One draw has no spread to estimate a standard error from."""
    with pytest.raises(DomainError, match="at least 2"):
        average(random_state(4, 0))


@pytest.mark.parametrize("refuse, message", [
    (lambda: haar_twirl_mc(random_state(4, 0), 2, 2, 1, 0),
     "a Monte-Carlo average needs at least 2 samples, got 1"),
    (lambda: pru_average_state(random_state(4, 0), 2, 1, 1, 0), "a keyed average needs at least 2 keys, got 1"),
    (lambda: ExperimentConfig(n=2, t=2, num_keys=1), "a keyed average needs at least 2 keys, got 1"),
    (lambda: ExperimentConfig(n=2, t=2, clifford_method="monte_carlo", clifford_samples=0),
     "a Monte-Carlo average needs at least 2 samples, got 0"),
], ids=["sampled-twirl", "keyed-average", "config-keys", "config-samples"])
def test_a_one_draw_refusal_names_the_average_and_the_count(refuse, message):
    """The sample and key counts of ``verify`` are pinned in ``test_cli``."""
    with pytest.raises(DomainError) as exc:
        refuse()
    assert str(exc.value) == message


def test_an_explicit_ensemble_of_one_is_averaged():
    """Unlike a Monte-Carlo average, an explicit ensemble is exact at any size
    (a single key: ``test_single_key_average_is_pure``)."""
    out = ensemble_twirl(random_state(4, 0), enumerate_cliffords(1)[:1], 2, 2)
    assert abs(np.linalg.eigvalsh(out.entries)[-1] - 1) < 1e-10  # one unitary keeps the state pure


@pytest.mark.parametrize("settings", [
    {"num_keys": 1},
    {"clifford_method": "monte_carlo", "clifford_samples": 1},
    {"clifford_method": "monte_carlo", "clifford_samples": 0},
])
def test_experiment_config_refuses_one_draw_averages(settings):
    with pytest.raises(DomainError, match="at least 2"):
        ExperimentConfig(n=2, t=2, **settings)
    ExperimentConfig(n=2, t=2, **settings | {"num_keys": 2, "clifford_samples": 2})
    ExperimentConfig(n=2, t=2, clifford_method="exact", clifford_samples=1)  # the count goes unused
