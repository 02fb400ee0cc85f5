"""Shared fixtures and randomized-input helpers for the test suite."""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmap import CycScalar, Poly, QParam


def random_fraction(rng: random.Random, span: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_scalar(rng: random.Random, span: int = 9, den: int = 9, omega: bool = True) -> CycScalar:
    om = random_fraction(rng, span, den) if omega and rng.random() < 0.5 else Fraction(0)
    return CycScalar(random_fraction(rng, span, den), om)


def random_nonzero_scalar(rng: random.Random, span: int = 9, den: int = 9, omega: bool = True) -> CycScalar:
    while True:
        s = random_scalar(rng, span, den, omega)
        if s:
            return s


def random_poly(rng: random.Random, max_deg: int, span: int = 6, omega: bool = True) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly([random_scalar(rng, span, 6, omega) for _ in range(deg + 1)])


def random_monic_poly(rng: random.Random, deg: int, span: int = 6, omega: bool = True) -> Poly:
    return Poly([random_scalar(rng, span, 6, omega) for _ in range(deg)] + [1])


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's own workload module, bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module's annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="session")
def q_half() -> QParam:
    return QParam(Fraction(1, 2), 160)


@pytest.fixture(scope="session")
def q_third() -> QParam:
    return QParam(Fraction(1, 3), 160)


_case_cache: dict = {}


def cached_case_bundle(case_id: int, q: QParam, N: int = 48, overrides: tuple = ()):
    """Build-once cache; case pipelines are pure so reuse across tests is safe."""
    from qmap.cubic_cases import build_case, case_fixture

    key = (case_id, str(q.q), N, overrides)
    if key not in _case_cache:
        case = case_fixture(case_id, q, dict(overrides) if overrides else None)
        _case_cache[key] = build_case(case, q, N)
    return _case_cache[key]
