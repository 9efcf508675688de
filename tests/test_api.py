"""The public surface: the exported names, the README example and the count checks."""

import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import renewperc as rp

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "BoundsReport", "ClassifyReport", "CoalescenceConstants", "ConstantQ", "CouplingReport",
    "DualLaw", "EnumerationCapError", "FiniteTableRadius", "GeometricTailRadius", "GfTable",
    "InfiniteRadius", "InterArrivalSummary", "InternalConsistencyError", "MarkovQ",
    "MonotonicityError", "PercolationBracket", "PolynomialMonotoneQ", "PowerLawTailRadius",
    "QSequence", "RadiusModel", "RenewalProbTable", "RenewpercError", "SimReport", "TableQ",
    "TinyConfig", "UnboundedRadiusError", "ValidationError", "__version__", "bounds_report",
    "ck_at", "ck_sequence", "classify", "coalescence_times", "connectivity_successes",
    "dual_law", "enumerate_connectivity", "enumerate_dual", "enumerate_gf",
    "forward_connectivity", "gf_partial", "interarrival", "percolation_probability",
    "q_sequence_from_config", "q_star_array", "radius_from_config", "random_tiny_configs",
    "renewal_probabilities", "simulate_connectivity", "simulate_coupling", "simulate_dual",
    "survival_products", "wilson_interval",
]


def test_public_names_are_pinned():
    # adding or removing a public name is an API change: update this list with it
    assert sorted(rp.__all__) == PUBLIC
    assert all(hasattr(rp, name) for name in rp.__all__)


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API in one minute") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    forward = rp.forward_connectivity(ns["spec"], ns["model"], 2)
    assert forward == pytest.approx(float(ns["dual"].v[2]), abs=1e-12)
    assert forward == pytest.approx(0.55, abs=1e-12)


SPEC = rp.MarkovQ(0.3, 0.6)
MODEL = rp.FiniteTableRadius((0.0, 0.5, 0.5))
GF = rp.gf_partial(SPEC, MODEL, 20)

# entry point -> (call with the count, a legal count)
COUNTED = {
    "gf_partial": (lambda h: rp.gf_partial(SPEC, MODEL, h), 50),
    "classify": (lambda h: rp.classify(SPEC, MODEL, h), 50),
    "bounds_report": (lambda h: rp.bounds_report(SPEC, MODEL, h), 50),
    # secondary_horizon=None selects the default, so None is sent on as 1.5
    "percolation_probability": (
        lambda h: rp.percolation_probability(GF, SPEC, MODEL, secondary_horizon=h or 1.5), 50
    ),
    "forward_connectivity": (lambda n: rp.forward_connectivity(SPEC, MODEL, n), 5),
    "q_at": (SPEC.q_at, 50),
    "alpha": (MODEL.alpha, 50),
    "interarrival": (lambda h: rp.interarrival(SPEC, h), 50),
    "survival_products": (lambda n: rp.survival_products(SPEC, n), 50),
    "renewal_probabilities": (lambda h: rp.renewal_probabilities(SPEC, h), 50),
    "ck_at": (lambda k: rp.ck_at(SPEC, k), 50),
    "ck_sequence": (lambda k: rp.ck_sequence(SPEC, k), 50),
    "TinyConfig": (lambda n: rp.enumerate_connectivity(rp.TinyConfig(SPEC, MODEL, n)), 3),
    "TinyConfig-cap": (lambda cap: rp.TinyConfig(SPEC, MODEL, 3, cap), 50),
    "random_tiny_configs": (lambda count: rp.random_tiny_configs(count, 1), 2),
    "random_tiny_configs-seed": (lambda seed: rp.random_tiny_configs(2, seed), 5),
    "wilson_interval": (lambda trials: rp.wilson_interval(3, trials), 50),
    "wilson_interval-successes": (lambda k: rp.wilson_interval(k, 50), 3),
    "PowerLawTailRadius-n0": (lambda n0: rp.PowerLawTailRadius(3.0, 1.0, n0), 2),
    "PolynomialMonotoneQ-i0": (lambda i0: rp.PolynomialMonotoneQ(0.25, i0), 3),
}


@pytest.mark.parametrize("name", COUNTED)
def test_counts_are_checked(name):
    call, count = COUNTED[name]
    for bad in (count + 0.5, True, str(count), None):
        with pytest.raises(rp.ValidationError):
            call(bad)
    # an integral float or numpy scalar is the same count, with the same
    # result bit for bit
    want = pickle.dumps(call(count))
    for same in (float(count), np.int64(count), np.float32(count)):
        assert pickle.dumps(call(same)) == want


@pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 3), (4, 3)])
def test_wilson_successes_lie_within_the_trials(successes, trials):
    with pytest.raises(rp.ValidationError, match="successes"):
        rp.wilson_interval(successes, trials)
    assert rp.wilson_interval(trials, trials)[1] == 1.0
