import math

import numpy as np
import pytest

import nedlab as nl


@pytest.fixture(scope="session")
def barreira():
    return nl.make_entry("barreira")


@pytest.fixture(scope="session")
def sign_switch():
    return nl.make_entry("sign-switch")


@pytest.fixture(scope="session")
def factorial_steps():
    return nl.make_entry("factorial-steps")


@pytest.fixture(scope="session")
def dirichlet_31():
    return nl.discretize(nl.Grid1D(1.0, 31), nl.BoundaryCondition("dirichlet"))


@pytest.fixture
def ode_solves(monkeypatch):
    """A function that returns how many ODE solves nedlab.process has made
    since the fixture was set up: solves of the compiled DOP853 driver on
    this thread plus ``solve_ivp`` calls (the dense paths)."""
    dense = []
    real = nl.process.solve_ivp

    def counting(*args, **kwargs):
        dense.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(nl.process, "solve_ivp", counting)
    start = nl.process._SOLVER.solves
    return lambda: nl.process._SOLVER.solves - start + len(dense)


@pytest.fixture
def constant_process():
    """x' = -x with exact antiderivative."""
    return nl.ScalarCoefficientProcess(lambda t: -1.0,
                                       antiderivative=lambda t: -t)


def constant_scalar(rate):
    return nl.ScalarCoefficientProcess(lambda t, r=rate: r,
                                       antiderivative=lambda t, r=rate: r * t)


def decay_cert(rate=1.0, growth=0.0, m=1.0, domain=None, kind="II"):
    return nl.DichotomyCertificate(kind, domain or nl.FULL_LINE, m,
                                   nl.ExponentPair(rate, growth),
                                   projection="zero")
