"""Shared fixtures: the worked-example networks and their property."""

import pathlib

import pytest

from incremark import incremental, solver
from incremark.model import LinearConstraint, Network, SafetyProperty

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

BOX = ((-1.0, 1.0), (-1.0, 1.0))


def _demo_net() -> Network:
    return Network([[[0.2, -0.7], [0.8, -0.8]], [[0.4, 0.6]]], [[-0.1, 0.0], [0.0]])


def _fprime() -> Network:
    return Network([[[0.2, -0.7], [0.9, -0.7]], [[0.4, 0.6]]], [[-0.1, 0.0], [0.0]])


def _fdoubleprime() -> Network:
    return Network([[[0.34, -1.34], [0.16, -0.69]], [[0.4, 0.6]]], [[-0.05, -0.33], [0.0]])


def _demo_prop() -> SafetyProperty:
    return SafetyProperty(BOX, (LinearConstraint((1.0,), 0.3),))


@pytest.fixture
def demo_net() -> Network:
    return _demo_net()


@pytest.fixture
def fprime() -> Network:
    return _fprime()


@pytest.fixture
def fdoubleprime() -> Network:
    return _fdoubleprime()


@pytest.fixture
def demo_prop() -> SafetyProperty:
    return _demo_prop()


@pytest.fixture
def unsat_prop() -> SafetyProperty:
    # threshold above the true maximum (1.28), interval-refuted outright
    return SafetyProperty(BOX, (LinearConstraint((1.0,), 2.0),))


def _no_witness(net, prop, starts):
    return None


@pytest.fixture
def no_attack(monkeypatch):
    """`solver.search` without the ascent it runs before building a tableau,
    and the replay ladder without the ascent from a feasible branch LP's
    point: for tests of the tableau and of the ladder's later rungs on
    instances that the ascent decides."""
    monkeypatch.setattr(solver, "attack", _no_witness)
    monkeypatch.setattr(incremental, "attack", _no_witness)


def tableau_solve(net, prop):
    """`solve` without the ascent, for one call: the tableau's tree. The
    demo's has its SAT leaf below a split, where the ascent decides the demo
    at the root from a box corner."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "attack", _no_witness)
        return solver.solve(net, prop)


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA


# Pass/fail lines recorded by the acceptance tests; shown after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
