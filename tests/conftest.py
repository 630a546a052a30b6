import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from horokit.bodies import AnnularDomain2D, Body2D, RevolutionBody, make_ball
from horokit.parallels import build_parallel_table, distance_field, rfk_verdict
from horokit.shell import ShellSpec, shell_eigen


# ---------------------------------------------------------------------------
# body suites

def convex_bodies_2d():
    """Ten certified-convex planar bodies (first is h-convex, none are balls)."""
    return [
        Body2D(a0=1.0, cos=[0.0, 0.05]),
        Body2D(a0=0.8, cos=[0.0, 0.1]),
        Body2D(a0=1.0, cos=[0.0, 0.08]),
        Body2D(a0=0.9, cos=[0.0, 0.0, 0.03]),
        Body2D(a0=1.2, cos=[0.0, 0.06], sin=[0.0, 0.04]),
        Body2D(a0=0.7, cos=[0.0, 0.04]),
        Body2D(a0=1.1, sin=[0.0, 0.07]),
        Body2D(a0=1.0, cos=[0.0, 0.04, 0.02]),
        Body2D(a0=0.85, cos=[0.0, 0.05], sin=[0.0, 0.0, 0.02]),
        Body2D(a0=1.3, cos=[0.0, 0.09]),
    ]


def hconvex_bodies_rev(n):
    """Five certified h-convex revolution bodies in ambient dimension n."""
    return [
        RevolutionBody(n=n, a0=1.0, cos_even=[0.05]),
        RevolutionBody(n=n, a0=0.9, cos_even=[0.04]),
        RevolutionBody(n=n, a0=1.2, cos_even=[0.1]),
        RevolutionBody(n=n, a0=0.8, cos_even=[0.05]),
        RevolutionBody(n=n, a0=1.1, cos_even=[0.03, 0.01]),
    ]


def random_bodies_2d(count=100, seed=0):
    """Random smooth planar bodies, convex and non-convex alike."""
    rng = np.random.default_rng(seed)
    bodies = []
    while len(bodies) < count:
        a0 = rng.uniform(0.6, 1.2)
        k_max = rng.integers(1, 7)
        cos = rng.normal(0.0, 0.3, k_max) * a0 / np.arange(1, k_max + 1) ** 2
        sin = rng.normal(0.0, 0.3, k_max) * a0 / np.arange(1, k_max + 1) ** 2
        if a0 - np.sum(np.abs(cos)) - np.sum(np.abs(sin)) < 0.05:
            continue
        bodies.append(Body2D(a0=a0, cos=cos, sin=sin))
    return bodies


@pytest.fixture(scope="session")
def convex_suite_2d():
    return convex_bodies_2d()


@pytest.fixture(scope="session")
def hconvex_suite_n3():
    return hconvex_bodies_rev(3)


@pytest.fixture(scope="session")
def hconvex_suite_n4():
    return hconvex_bodies_rev(4)


@pytest.fixture(scope="session")
def random_suite_2d():
    return random_bodies_2d()


# ---------------------------------------------------------------------------
# annulus-comparison domains (shared across the heavy pipeline tests)

def rfk_domain_specs():
    """The five benchmark domains: concentric, two offsets, two convex holes."""
    outer = make_ball(2, 1.8)
    return {
        "concentric": AnnularDomain2D(inner=make_ball(2, 0.8), outer=outer),
        "offset_0.1": AnnularDomain2D(inner=make_ball(2, 0.8), outer=outer, offset=0.1),
        "offset_0.2": AnnularDomain2D(inner=make_ball(2, 0.8), outer=outer, offset=0.2),
        "hole_eps_0.05": AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.05]), outer=outer),
        "hole_eps_0.1": AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.1]), outer=outer),
    }


@pytest.fixture(scope="session")
def rfk_domains():
    return rfk_domain_specs()


@pytest.fixture(scope="session")
def rfk_tables(rfk_domains):
    return {name: build_parallel_table(dom) for name, dom in rfk_domains.items()}


@pytest.fixture(scope="session")
def rfk_fields(rfk_domains, rfk_tables):
    """Each table's field: the normal rays it settled on."""
    return {name: distance_field(dom, rfk_tables[name].grid_res)
            for name, dom in rfk_domains.items()}


@pytest.fixture(scope="session")
def rfk_reports(rfk_domains, rfk_tables):
    return {name: rfk_verdict(dom, 2.0, table=rfk_tables[name])
            for name, dom in rfk_domains.items()}


@pytest.fixture(scope="session")
def shell_benchmark():
    spec = ShellSpec(n=2, p=2.0, r=0.5, R=1.5)
    return spec, shell_eigen(spec)
