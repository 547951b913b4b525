from __future__ import annotations

import pytest

from relaymarket import radio, topology


@pytest.fixture(name="default_params")
def default_params_fixture():
    return topology.params_from_dict({})


@pytest.fixture(name="tiny_params")
def tiny_params_fixture():
    """Two-by-two scenario with a grid coarse enough to enumerate."""
    return topology.params_from_dict({
        "l_pu": 2, "l_su": 2,
        "xi_init": 1.0, "beta_init": 1.0,
        "delta": 0.25, "epsilon": 0.25,
    })


def scenario(params, seed):
    """Realization plus its rate floors, the way the engine consumes them."""
    real = topology.make_realization(params, seed)
    req = radio.requirements_for(params, real)
    return real, req


@pytest.fixture(name="scenario_at")
def scenario_at_fixture():
    return scenario


def assert_outcome_well_formed(outcome, l_pu, l_su):
    """Structural checks every matching outcome must satisfy: its shape,
    indices in range, no licensed user or relay matched twice, and terms
    in row-major order."""
    assert outcome.shape == (l_pu, l_su)
    terms = outcome.matched_terms()
    pairs = outcome.matched_pairs()
    assert list(terms) == sorted(terms)
    assert pairs == [(l, q) for l, q, _, _ in terms]
    assert all(0 <= l < l_pu and 0 <= q < l_su for l, q in pairs)
    assert len({l for l, _ in pairs}) == len(pairs)
    assert len({q for _, q in pairs}) == len(pairs)


# Verdict lines registered by the acceptance tests; replayed after the run
# summary because output capture would otherwise hide the passing ones.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance report")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
