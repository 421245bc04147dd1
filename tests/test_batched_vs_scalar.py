"""Differential tests: batched evaluators vs. the scalar reference oracle.

The batched query subsystem (``repro.scm.batched``) must be semantically
equivalent to the scalar methods it vectorizes — the scalar path *is* the
specification.  Hypothesis generates random SCMs (random DAG shapes, random
mechanism types, random domains), random fitted models and random batches
(including the N=0 and N=1 edge cases).  Ground-truth :class:`BatchedSCM`
answers are held to 1e-9 of their scalar counterparts.  Fitted-model
answers run through the production fused programs, whose matrix products
reassociate each equation's sum, so they are held to the condition-aware
bound :func:`_fused_tol` (1e-9 for well-conditioned fits).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.inference.repairs import individual_causal_effect
from repro.scm.batched import BatchedFittedModel, BatchedSCM, group_by_keyset
from repro.scm.fitting import fit_structural_equations
from repro.scm.mechanisms import (
    CategoricalTableMechanism,
    ClippedMechanism,
    InteractionMechanism,
    LinearMechanism,
    PolynomialMechanism,
    SaturatingMechanism,
)
from repro.scm.model import StructuralCausalModel
from repro.scm.noise import GaussianNoise, UniformNoise
from repro.stats.dataset import Dataset

TOL = dict(rtol=1e-9, atol=1e-9)


def _fused_tol(model):
    """Condition-aware tolerance for the reassociated fused path.

    Hypothesis-generated fits can be arbitrarily ill-conditioned:
    discrete options make x and x^2 (near-)collinear, so lstsq splits
    coefficient mass between cancelling features whose magnitude is
    unbounded (observed up to ~1e9).  Reassociating the summation — as
    the fused matrix product does — then loses ~eps per unit of
    coefficient magnitude, compounding once per level, so the honest bound
    scales with the square of the largest coefficient.  Well-conditioned
    fits (hand-built models, the pinned benchmark scan) keep the hard 1e-9
    of ``TOL``.
    """
    scale = 1.0
    for equation in model.equations().values():
        coefficients = getattr(equation, "coefficients", None)
        if coefficients is not None and len(coefficients):
            scale = max(scale, float(np.max(np.abs(coefficients))),
                        abs(float(equation.intercept)))
    return dict(rtol=1e-9, atol=max(1e-9, 1e-12 * scale * scale))


def _ice_atol(tol, measurement: float, predicted: float) -> float:
    """ICE bound implied by a counterfactual held to ``tol``.

    ICE is ``tanh(4 * margin)`` with ``margin = (m - cf) / max(|m|, 1e-9)``,
    and ``|tanh(4a) - tanh(4b)| <= 4 |a - b|``; a counterfactual within
    ``atol + rtol * |cf|`` therefore moves ICE by at most this much.
    """
    cf_error = tol["atol"] + tol["rtol"] * abs(predicted)
    return 4.0 * cf_error / max(abs(measurement), 1e-9)

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def random_scms(draw) -> StructuralCausalModel:
    """A random SCM mixing every built-in mechanism type."""
    n_options = draw(st.integers(1, 3))
    exogenous = {}
    for i in range(n_options):
        size = draw(st.integers(2, 4))
        values = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                               min_size=size, max_size=size, unique=True))
        exogenous[f"o{i}"] = tuple(values)

    mechanisms = {}
    noise = {}
    available = list(exogenous)
    n_endogenous = draw(st.integers(1, 4))
    for j in range(n_endogenous):
        name = f"v{j}"
        n_parents = draw(st.integers(1, min(3, len(available))))
        parents = draw(st.permutations(available))[:n_parents]
        kind = draw(st.sampled_from(
            ["linear", "poly", "interaction", "saturating", "table",
             "clipped"]))
        if kind == "linear":
            mechanism = LinearMechanism(
                {p: draw(coefficients) for p in parents},
                intercept=draw(coefficients))
        elif kind == "poly":
            mechanism = PolynomialMechanism(
                {p: (draw(coefficients), draw(st.floats(-0.5, 0.5)))
                 for p in parents},
                intercept=draw(coefficients))
        elif kind == "interaction":
            mechanism = InteractionMechanism(
                {p: draw(coefficients) for p in parents},
                interactions={tuple(parents): draw(st.floats(-0.5, 0.5))},
                intercept=draw(coefficients))
        elif kind == "saturating":
            mechanism = SaturatingMechanism(
                driver=parents[0],
                scale=abs(draw(coefficients)) + 0.5,
                half_point=abs(draw(coefficients)) + 0.5,
                baseline=draw(coefficients),
                modifiers={p: draw(coefficients) for p in parents[1:]})
        elif kind == "table":
            levels = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                                   min_size=1, max_size=4, unique=True))
            mechanism = CategoricalTableMechanism(
                selector=parents[0],
                table={level: draw(coefficients) for level in levels},
                default=draw(coefficients),
                linear={p: draw(coefficients) for p in parents[1:]},
                intercept=draw(coefficients))
        else:
            lower = draw(st.floats(-20.0, 0.0, allow_nan=False))
            mechanism = ClippedMechanism(
                LinearMechanism({p: draw(coefficients) for p in parents},
                                intercept=draw(coefficients)),
                lower=lower,
                upper=lower + abs(draw(st.floats(0.0, 40.0))))
        mechanisms[name] = mechanism
        noise_kind = draw(st.sampled_from(["none", "gauss", "uniform"]))
        if noise_kind == "gauss":
            noise[name] = GaussianNoise(abs(draw(st.floats(0.0, 1.0))))
        elif noise_kind == "uniform":
            noise[name] = UniformNoise(abs(draw(st.floats(0.0, 1.0))))
        available.append(name)
    return StructuralCausalModel(exogenous, mechanisms, noise)


@st.composite
def scm_and_configs(draw):
    scm = draw(random_scms())
    n = draw(st.integers(0, 6))
    configurations = []
    for _ in range(n):
        config = {}
        for name in scm.exogenous_variables:
            if draw(st.booleans()):
                config[name] = draw(st.sampled_from(scm.domain(name)))
        configurations.append(config)
    return scm, configurations


# ---------------------------------------------------------------------------
# Ground-truth SCMs
# ---------------------------------------------------------------------------
@given(scm_and_configs())
@settings(max_examples=40, deadline=None)
def test_intervene_batch_matches_scalar(scm_configs):
    scm, configurations = scm_configs
    batched = BatchedSCM(scm)
    columns = batched.intervene_batch(configurations)
    for i, config in enumerate(configurations):
        scalar = scm.intervene(config)
        for variable, value in scalar.items():
            assert np.allclose(columns[variable][i], value, **TOL)


@given(scm_and_configs(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_intervene_batch_consumes_rng_like_a_scalar_loop(scm_configs, seed):
    scm, configurations = scm_configs
    batched = BatchedSCM(scm)
    scalar_rng = np.random.default_rng(seed)
    batch_rng = np.random.default_rng(seed)
    columns = batched.intervene_batch(configurations, rng=batch_rng)
    for i, config in enumerate(configurations):
        scalar = scm.intervene(config, rng=scalar_rng)
        for variable, value in scalar.items():
            assert np.allclose(columns[variable][i], value, **TOL)


@given(random_scms(), st.integers(0, 2 ** 31 - 1), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_counterfactual_batch_matches_scalar(scm, seed, n):
    rng = np.random.default_rng(seed)
    observations = scm.sample(n, rng)
    interventions = []
    for i in range(n):
        option = scm.exogenous_variables[i % len(scm.exogenous_variables)]
        interventions.append({option: scm.domain(option)[0]}
                             if i % 3 else {})
    batched = BatchedSCM(scm)
    columns = batched.counterfactual_batch(observations, interventions)
    noise = batched.abduct_noise_batch(observations)
    for i, (observation, intervention) in enumerate(zip(observations,
                                                        interventions)):
        scalar = scm.counterfactual(observation, intervention)
        for variable, value in scalar.items():
            assert np.allclose(columns[variable][i], value, **TOL)
        for variable, value in scm.abduct_noise(observation).items():
            assert np.allclose(noise[variable][i], value, **TOL)


@given(random_scms(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_interventional_expectation_batch_matches_scalar(scm, seed):
    option = scm.exogenous_variables[0]
    target = scm.endogenous_variables[-1]
    interventions = [{option: value} for value in scm.domain(option)[:2]]
    scalar_rng = np.random.default_rng(seed)
    batch_rng = np.random.default_rng(seed)
    batched = BatchedSCM(scm)
    values = batched.interventional_expectation_batch(
        target, interventions, batch_rng, n_samples=16)
    for j, intervention in enumerate(interventions):
        scalar = scm.interventional_expectation(target, intervention,
                                                scalar_rng, n_samples=16)
        assert np.allclose(values[j], scalar, **TOL)


def _tiny_scm() -> StructuralCausalModel:
    """A small deterministic SCM for the non-property edge-case tests."""
    return StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0), "o1": (1.0, 2.0, 4.0)},
        mechanisms={
            "v0": LinearMechanism({"o0": 2.0, "o1": -1.0}, intercept=3.0),
            "v1": SaturatingMechanism(driver="v0", scale=5.0, half_point=2.0,
                                      modifiers={"o1": 0.5}),
        },
        noise={"v0": GaussianNoise(0.3)})


def test_batched_scm_empty_batch():
    batched = BatchedSCM(_tiny_scm())
    columns = batched.intervene_batch([])
    assert all(column.shape == (0,) for column in columns.values())
    counterfactuals = batched.counterfactual_batch([], [])
    assert all(column.shape == (0,) for column in counterfactuals.values())


def test_abduction_handles_heterogeneous_observation_keysets():
    """Rows observing different variable subsets abduct like a scalar loop."""
    scm = _tiny_scm()
    rng = np.random.default_rng(4)
    full = scm.sample(2, rng)
    full[0]["extra"] = 99.0          # a key the second row does not have
    batched = BatchedSCM(scm)
    noise = batched.abduct_noise_batch(full)
    for i, observation in enumerate(full):
        scalar = scm.abduct_noise(observation)
        for variable, value in scalar.items():
            assert np.allclose(noise[variable][i], value, **TOL)
    counterfactuals = batched.counterfactual_batch(
        full, [{"o0": 1.0}, {"o1": 2.0}])
    for i, (observation, intervention) in enumerate(
            zip(full, [{"o0": 1.0}, {"o1": 2.0}])):
        scalar = scm.counterfactual(observation, intervention)
        for variable, value in scalar.items():
            assert np.allclose(counterfactuals[variable][i], value, **TOL)


# ---------------------------------------------------------------------------
# Fitted performance models
# ---------------------------------------------------------------------------
@st.composite
def fitted_models(draw):
    """A fitted model over data sampled from a random SCM."""
    scm = draw(random_scms())
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    rows = scm.sample(draw(st.integers(12, 40)), rng)
    data = Dataset.from_rows(rows)
    return scm, fit_structural_equations(scm.dag, data), seed


@st.composite
def fitted_and_interventions(draw):
    scm, model, seed = draw(fitted_models())
    n = draw(st.integers(0, 8))
    options = scm.exogenous_variables
    interventions = []
    for i in range(n):
        intervention = {}
        for name in options:
            if draw(st.booleans()):
                intervention[name] = draw(st.sampled_from(scm.domain(name)))
        if not intervention:
            intervention[options[i % len(options)]] = \
                scm.domain(options[i % len(options)])[0]
        interventions.append(intervention)
    return scm, model, interventions


@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_predict_batch_matches_scalar(case):
    scm, model, assignments = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    target = scm.endogenous_variables[-1]
    results = batched.predict_batch(assignments, targets=[target])
    assert len(results) == len(assignments)
    for assignment, result in zip(assignments, results):
        scalar = model.predict(assignment, targets=[target])
        assert np.allclose(result[target], scalar[target], **tol)
    # Without a target filter every variable the scalar path returns comes
    # back, each within the same bound.
    for assignment, result in zip(assignments,
                                  batched.predict_batch(assignments)):
        scalar = model.predict(assignment)
        assert set(result) == set(scalar)
        for variable, value in scalar.items():
            assert np.allclose(result[variable], value, **tol)


@given(fitted_and_interventions(), st.sampled_from([3, 10, 200]))
@settings(max_examples=25, deadline=None)
def test_interventional_expectation_batch_fitted_matches_scalar(case,
                                                                max_contexts):
    scm, model, interventions = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    target = scm.endogenous_variables[-1]
    values = batched.interventional_expectation_batch(
        target, interventions, max_contexts=max_contexts)
    assert values.shape == (len(interventions),)
    for j, intervention in enumerate(interventions):
        scalar = model.interventional_expectation(target, intervention,
                                                  max_contexts=max_contexts)
        assert np.allclose(values[j], scalar, **tol)


@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_counterfactual_batch_fitted_matches_scalar(case):
    scm, model, interventions = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    observation = model.data.row(0)
    outcomes = batched.counterfactual_batch(observation, interventions)
    targets = list(scm.endogenous_variables)
    matrix = batched.counterfactual_targets_batch(observation, interventions,
                                                  targets)
    assert matrix.shape == (len(interventions), len(targets))
    for i, intervention in enumerate(interventions):
        scalar = model.counterfactual(observation, intervention)
        for variable, value in scalar.items():
            assert np.allclose(outcomes[i][variable], value, **tol)
        for t, target in enumerate(targets):
            assert np.allclose(matrix[i, t], scalar.get(target, 0.0), **tol)


@given(fitted_models())
@settings(max_examples=20, deadline=None)
def test_counterfactual_rows_batch_matches_scalar(case):
    scm, model, _ = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    option = scm.exogenous_variables[0]
    target = scm.endogenous_variables[-1]
    intervention = {option: scm.domain(option)[-1]}
    column = batched.counterfactual_rows_batch(intervention, target)
    rows = model.data.rows()
    assert column.shape == (len(rows),)
    for i, row in enumerate(rows):
        scalar = model.counterfactual(row, intervention)
        assert np.allclose(column[i], scalar.get(target, 0.0), **tol)


@given(fitted_models())
@settings(max_examples=15, deadline=None)
def test_repair_scoring_batched_matches_scalar_ice(case):
    """Batched candidate scoring reproduces individual_causal_effect."""
    scm, model, _ = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    option = scm.exogenous_variables[0]
    target = scm.endogenous_variables[-1]
    objectives = {target: "minimize"}
    observation = model.data.row(0)
    faulty_configuration = {name: observation[name]
                            for name in scm.exogenous_variables}
    faulty_measurement = {target: observation[target]}
    candidates = [{option: value} for value in scm.domain(option)]
    for change in candidates:
        ice, improvement, predicted = individual_causal_effect(
            model, faulty_configuration, faulty_measurement, change,
            objectives)
        matrix = batched.counterfactual_targets_batch(
            {**faulty_measurement, **faulty_configuration}, [change],
            [target])
        measurement = faulty_measurement[target]
        margin = (measurement - matrix[0, 0]) / max(abs(measurement), 1e-9)
        assert np.allclose(matrix[0, 0], predicted[target], **tol)
        assert abs(np.tanh(4.0 * margin) - ice) <= _ice_atol(
            tol, measurement, predicted[target])


def test_group_by_keyset_covers_all_indices():
    mappings = [{"a": 1.0}, {"b": 2.0}, {"a": 3.0}, {}, {"a": 1.0, "b": 2.0}]
    groups = group_by_keyset(mappings)
    seen = sorted(i for _, idx in groups for i in idx)
    assert seen == list(range(len(mappings)))
    keys = {frozenset(k) for k, _ in groups}
    assert keys == {frozenset({"a"}), frozenset({"b"}), frozenset(),
                    frozenset({"a", "b"})}


def test_fitted_batch_empty_and_singleton():
    scm = _tiny_scm()
    rows = scm.sample(20, np.random.default_rng(0))
    model = fit_structural_equations(scm.dag, Dataset.from_rows(rows))
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    target = scm.endogenous_variables[-1]
    option = scm.exogenous_variables[0]
    assert batched.predict_batch([]) == []
    assert batched.interventional_expectation_batch(target, []).shape == (0,)
    assert batched.counterfactual_batch(model.data.row(0), []) == []
    assert batched.counterfactual_targets_batch(
        model.data.row(0), [], [target]).shape == (0, 1)
    single = batched.interventional_expectation_batch(
        target, [{option: scm.domain(option)[0]}])
    scalar = model.interventional_expectation(
        target, {option: scm.domain(option)[0]}, max_contexts=200)
    assert np.allclose(single[0], scalar, **tol)
